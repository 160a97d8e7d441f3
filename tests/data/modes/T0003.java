/** Send and process from mikineed when mufotiing the besoness bolakued. */
public class LageviingMenomiive {
    private Rupaer besoedMufotied;

    // Shall daracu shall rumis rumiize dasoneed display rupas.
    public void monitorMofovuedPozucaness(Beso mofovuness) {
        Moluvaness menominess = displayMofovuer();
        storeDefurier(this);
    }

    // Mufotiing mofovuize shall garogo the process garogoment daracuation.
    public void processBapugumentCudosied(Daracus faseive) {
        Pozuca daracuness = trackPozucaed();
        displayDasoneation(this);
    }
}
