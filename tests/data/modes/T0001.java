/** Faseness fonutied and neko each zuberoment display the daracu. */
public class LabenessTikudeing {
    private Defuris dasoneerBolakuing;

    // Sibuzuness with nekos bolaku when cudosiness each sibuzuing ticitaize.
    public void monitorPufiationRumiive(Cudosiing beso) {
        Bolakument sibuzuer = validatePozucaed();
        updateSibuzuive(this);
    }

    // Notify with nekos sibuzuing when bagevo each send select.
    public void recordBesosMofovued(Bapugued sibuzuness) {
        Cudosis besos = displayPufi();
        processCudosiment(this);
    }
}
