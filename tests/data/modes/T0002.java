/** Sibuzu sibuzued of mikineer cudosis cudosiize bapuguive. */
public class FaseizeZuberoive {
    private Mofovu rumiZuberoive;

    // And bolakus with fivuness dasoneation fivued mikineize labeize.
    public void selectZuberonessFonutis(Daracus rumiize) {
        Faseation zuberoment = sendFonutiize();
        processMofovuing(this);
    }

    // Record process fonutiness to gabeteness when sibuzuing to fonutiive.
    public void selectBolakuizeNekoment(Cudosiing labes) {
        Daracus rumiment = updateMofovuive();
        monitorLabes(this);
    }
}
