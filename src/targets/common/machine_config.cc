#include "targets/common/machine_config.h"

#include <cmath>

#include "core/error.h"
#include "core/strings.h"

namespace polymath::target {

void
MachineConfig::validate() const
{
    auto positive = [this](const char *field, double value) {
        if (!(value > 0.0) || !std::isfinite(value)) {
            fatal(format("MachineConfig(%s).%s must be positive (got %g)",
                         name.c_str(), field, value));
        }
    };
    auto non_negative = [this](const char *field, double value) {
        if (!(value >= 0.0) || !std::isfinite(value)) {
            fatal(format("MachineConfig(%s).%s must be non-negative "
                         "(got %g)",
                         name.c_str(), field, value));
        }
    };
    positive("computeUnits", static_cast<double>(computeUnits));
    positive("freqGhz", freqGhz);
    positive("watts", watts);
    positive("dramGBs", dramGBs);
    positive("flopsPerUnitCycle", flopsPerUnitCycle);
    positive("busWordsPerCycle", static_cast<double>(busWordsPerCycle));
    positive("banksPerPipe", static_cast<double>(banksPerPipe));
    non_negative("idleWatts", idleWatts);
    non_negative("onChipBytes", static_cast<double>(onChipBytes));
    non_negative("launchOverheadUs", launchOverheadUs);
}

double
cyclesToSeconds(double cycles, double freq_ghz)
{
    if (!(freq_ghz > 0.0) || !std::isfinite(freq_ghz)) {
        fatal(format("cyclesToSeconds: frequency must be positive and "
                     "finite (got %g GHz)",
                     freq_ghz));
    }
    return cycles / (freq_ghz * 1e9);
}

void
SocConfig::validate() const
{
    auto positive = [](const char *field, double value) {
        if (!(value > 0.0)) {
            fatal(format("SocConfig.%s must be positive (got %g)", field,
                         value));
        }
    };
    auto non_negative = [](const char *field, double value) {
        if (value < 0.0) {
            fatal(format("SocConfig.%s must be non-negative (got %g)",
                         field, value));
        }
    };
    positive("dmaGBs", dmaGBs);
    positive("perTransferUs", perTransferUs);
    positive("hostWatts", hostWatts);
    non_negative("dramPjPerByte", dramPjPerByte);
    non_negative("glueOffloadWatts", glueOffloadWatts);
    non_negative("glueCpuWatts", glueCpuWatts);
    if (!(hostFallbackEff > 0.0) || hostFallbackEff > 1.0) {
        fatal(format("SocConfig.hostFallbackEff must be in (0, 1] "
                     "(got %g)",
                     hostFallbackEff));
    }
    if (streamMaxPending <= 0) {
        fatal(format("SocConfig.streamMaxPending must be positive "
                     "(got %d)",
                     streamMaxPending));
    }
    non_negative("streamDispatchUs", streamDispatchUs);
    non_negative("streamOutageSeconds", streamOutageSeconds);
}

MachineConfig
xeonConfig()
{
    MachineConfig m;
    m.name = "Xeon E-2176G";
    m.freqGhz = 3.7;
    m.watts = 80.0;
    m.computeUnits = 6;       // cores
    m.flopsPerUnitCycle = 16; // AVX2 FMA peak per core
    m.dramGBs = 41.6;         // dual-channel DDR4-2666
    m.launchOverheadUs = 0.0;
    return m;
}

MachineConfig
titanXpConfig()
{
    MachineConfig m;
    m.name = "Titan Xp";
    m.freqGhz = 1.58;
    m.watts = 250.0;
    m.idleWatts = 15.0;
    m.computeUnits = 3840;
    m.flopsPerUnitCycle = 2; // FMA
    m.dramGBs = 547.0;
    m.launchOverheadUs = 6.0;
    return m;
}

MachineConfig
jetsonConfig()
{
    MachineConfig m;
    m.name = "Jetson Xavier";
    m.freqGhz = 1.3;
    m.watts = 30.0;
    m.idleWatts = 5.0;
    m.computeUnits = 512;
    m.flopsPerUnitCycle = 2;
    m.dramGBs = 137.0;
    m.launchOverheadUs = 9.0;
    return m;
}

MachineConfig
roboxConfig()
{
    MachineConfig m;
    m.name = "RoboX";
    m.freqGhz = 1.0;
    m.watts = 3.4;
    m.computeUnits = 256;
    m.flopsPerUnitCycle = 1;
    m.dramGBs = 12.8;
    m.onChipBytes = 512 * 1024;
    m.launchOverheadUs = 0.2; // task dispatch in the macro-DFG sequencer
    return m;
}

MachineConfig
graphicionadoConfig()
{
    MachineConfig m;
    m.name = "Graphicionado";
    m.freqGhz = 1.0;
    m.watts = 7.0;
    m.computeUnits = 8; // parallel vertex/edge pipelines
    m.flopsPerUnitCycle = 1;
    m.dramGBs = 68.0;   // 4x HMC-ish links in the paper's config
    m.onChipBytes = 64ll * 1024 * 1024;
    m.launchOverheadUs = 1.0;
    m.banksPerPipe = 32; // destination-interleaved atomic-update banks
    return m;
}

MachineConfig
tablaConfig()
{
    MachineConfig m;
    m.name = "TABLA";
    m.freqGhz = 0.15;
    m.watts = 18.0;     // measured-design share of the 35 W board envelope
    m.computeUnits = 2048; // PEs synthesized from the 5520 DSP slices
    m.flopsPerUnitCycle = 1;
    m.dramGBs = 19.2;   // two DDR4 channels on the KCU1500
    m.onChipBytes = 64ll * 1024 * 1024; // Table VI: 75 MB FPGA memory
    m.launchOverheadUs = 2.0;
    m.busWordsPerCycle = 64; // shared operand bus between PE groups
    return m;
}

MachineConfig
decoConfig()
{
    MachineConfig m;
    m.name = "DECO";
    m.freqGhz = 0.15;
    m.watts = 16.0;
    m.computeUnits = 1024; // DSP-block columns in the overlay
    m.flopsPerUnitCycle = 1;
    m.dramGBs = 19.2;
    m.onChipBytes = 8ll * 1024 * 1024;
    m.launchOverheadUs = 2.0;
    return m;
}

MachineConfig
vtaConfig()
{
    MachineConfig m;
    m.name = "TVM-VTA";
    m.freqGhz = 0.15;
    m.watts = 3.0;      // PYNQ-class power envelope
    m.computeUnits = 256; // 16x16 GEMM core MACs
    m.flopsPerUnitCycle = 2;
    m.dramGBs = 19.2;
    m.onChipBytes = 1ll * 1024 * 1024;
    m.launchOverheadUs = 8.0; // per-layer instruction fetch + sync
    return m;
}

MachineConfig
hyperstreamsConfig()
{
    MachineConfig m;
    m.name = "HyperStreams";
    m.freqGhz = 0.15;
    m.watts = 14.0;
    m.computeUnits = 512; // pipeline stages able to retire 1 op/cycle
    m.flopsPerUnitCycle = 1;
    m.dramGBs = 19.2;
    m.onChipBytes = 4ll * 1024 * 1024;
    m.launchOverheadUs = 2.0;
    return m;
}

SocConfig
socConfig()
{
    SocConfig c;
    c.dmaGBs = 16.0;
    c.perTransferUs = 2.0;
    c.hostWatts = 1.5;
    c.dramPjPerByte = 20.0;
    return c;
}

} // namespace polymath::target
