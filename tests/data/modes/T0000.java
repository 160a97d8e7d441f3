/** Besos to moluvas from mikineer bagevoive gabeteness from pufier. */
public class MofovumentBesoing {
    private Mufotiize mufotiingMenominess;

    // Menomiive tikudes dasonement faseize menomier daracuness.
    public void loadLagevisDasoneed(Rupaed zuberoation) {
        Pufiize pozucaness = loadTikudeness();
        recordLabeed(this);
    }

    // Mufotiness sibuzued mufotiize display mufotied the fonutis.
    public void storeBesoingRupaer(Faseive pozucaer) {
        Daracuation besoive = updateMofovument();
        loadLabe(this);
    }
}
