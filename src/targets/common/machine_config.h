/**
 * @file
 * Machine configurations for every platform in the evaluation (Table VI of
 * the paper plus public spec-sheet rates for the GPUs). All backend cost
 * models read their constants from here so the calibration surface is one
 * file.
 */
#ifndef POLYMATH_TARGETS_COMMON_MACHINE_CONFIG_H_
#define POLYMATH_TARGETS_COMMON_MACHINE_CONFIG_H_

#include <cstdint>
#include <string>

namespace polymath::target {

/** Generic machine parameters. */
struct MachineConfig
{
    std::string name;
    double freqGhz = 1.0;
    double watts = 1.0;         ///< board/chip power while active
    double idleWatts = 0.0;     ///< consumed even when this unit waits
    int64_t computeUnits = 1;   ///< lanes / PEs / DSP slices / CUDA cores
    double flopsPerUnitCycle = 1.0;
    double dramGBs = 10.0;      ///< off-chip bandwidth
    int64_t onChipBytes = 0;    ///< scratchpad / BRAM capacity
    double launchOverheadUs = 0.0; ///< per-kernel/fragment dispatch cost

    // Backend-specific microarchitecture knobs. Backends that do not use
    // a knob ignore it; the defaults reproduce the Table VI constants the
    // cost models were calibrated with, so a default-constructed config
    // is byte-identical to the pre-knob models.

    /** TABLA: words per cycle of the shared operand bus between PE
     *  groups. The inter-level bus turnaround shrinks as the bus widens
     *  (4 cycles at the synthesized 64-word bus). */
    int64_t busWordsPerCycle = 64;

    /** Graphicionado: atomic-update banks per pipeline. More banks mean
     *  fewer same-cycle reduce conflicts (the calibrated 1.3x conflict
     *  factor corresponds to 32 banks/pipe). */
    int64_t banksPerPipe = 32;

    double peakFlops() const
    {
        return freqGhz * 1e9 * static_cast<double>(computeUnits) *
               flopsPerUnitCycle;
    }

    /**
     * Rejects configurations the cost models would divide by zero on or
     * produce NaN/negative seconds from: non-positive (or non-finite)
     * computeUnits, freqGhz, watts, dramGBs, flopsPerUnitCycle,
     * busWordsPerCycle, or banksPerPipe, and negative idleWatts,
     * onChipBytes, or launchOverheadUs.
     * @throws UserError naming the offending field.
     */
    void validate() const;

    /** Field by field: equal configs price identically on every cost
     *  model. */
    bool operator==(const MachineConfig &) const = default;
};

/**
 * Shared cycles -> seconds conversion for every cycle-accurate engine
 * (the Graphicionado trace pipeline, the VTA tiler). One guard lives
 * here: a zero, negative, or non-finite frequency is rejected with a
 * UserError instead of silently producing inf/NaN seconds.
 */
double cyclesToSeconds(double cycles, double freq_ghz);

// ---------------------------------------------------------------------------
// Baselines (Table VI).
// ---------------------------------------------------------------------------

/** Xeon E-2176G: 6 cores, 3.7 GHz, 80 W, 128 GB. The per-domain SIMD
 *  efficiency of the optimized native libraries is modeled in CpuModel. */
MachineConfig xeonConfig();

/** Titan Xp: 3840 CUDA cores @ 1.5 GHz, 250 W, 547 GB/s. */
MachineConfig titanXpConfig();

/** Jetson AGX Xavier: 512 CUDA cores @ 1.3 GHz, 30 W, 137 GB/s. */
MachineConfig jetsonConfig();

// ---------------------------------------------------------------------------
// Accelerators (Table V/VI).
// ---------------------------------------------------------------------------

/** RoboX programmable ASIC: 256 compute units @ 1 GHz, 3.4 W, 512 KB. */
MachineConfig roboxConfig();

/** Graphicionado ASIC: 8 pipelines @ 1 GHz, 7 W, 64 MB eDRAM scratchpad. */
MachineConfig graphicionadoConfig();

/** TABLA on KCU1500: template-based ML accelerator, 150 MHz FPGA fabric. */
MachineConfig tablaConfig();

/** DECO DSP-block overlay on KCU1500: 150 MHz pipelined DSP chains. */
MachineConfig decoConfig();

/** TVM-VTA on KCU1500: 16x16 GEMM core, 150 MHz. */
MachineConfig vtaConfig();

/** HyperStreams on KCU1500: deep arithmetic pipelines, 150 MHz. */
MachineConfig hyperstreamsConfig();

/** SoC interconnect: DMA bandwidth and per-transfer latency used by the
 *  host manager when cascading accelerators. */
struct SocConfig
{
    double dmaGBs = 8.0;          ///< DRAM <-> accelerator local memory
    double perTransferUs = 4.0;   ///< DMA setup + host manager dispatch
    double hostWatts = 5.0;       ///< light-weight host manager core
    double dramPjPerByte = 20.0;  ///< DRAM access energy

    /** Host CPU power while running per-invocation glue: the marshaling
     *  share when kernels are offloaded vs. the full CPU package power
     *  when the whole application stays on the CPU. */
    double glueOffloadWatts = 15.0;
    double glueCpuWatts = 80.0;

    /** Fraction of the tuned native-library efficiency the host achieves
     *  when a partition *degrades* onto it at runtime: a fault-triggered
     *  fallback runs the compiler's portable host lowering, not the
     *  Table II hand-optimized library the cpuEff calibrations assume.
     *  In (0, 1]; 1 models fallback into the native library itself. */
    double hostFallbackEff = 0.25;

    // Streaming orchestrator knobs (soc::StreamScheduler).

    /** Admission bound: jobs admitted but not yet finished. Arrivals
     *  beyond this are load-shed (rejected with accounting, never
     *  silently dropped). */
    int streamMaxPending = 64;

    /** Host-manager admission + dispatch latency per admitted job. It is
     *  queueing delay, charged to the job's stream latency and deadline —
     *  never to its PerfReport, which stays bit-identical to a sequential
     *  SocRuntime::execute. */
    double streamDispatchUs = 2.0;

    /** Virtual-time length of an AcceleratorUnavailable outage in the
     *  stream: the backend rejects placements until it repairs, and
     *  queued/in-flight partitions migrate to the host or a compatible
     *  accelerator meanwhile. */
    double streamOutageSeconds = 0.05;

    /** Rejects configurations the DMA/energy model would divide by zero
     *  on or produce negative costs from.
     *  @throws UserError on non-positive dmaGBs/perTransferUs/hostWatts,
     *  negative energy/glue coefficients, or stream knobs the scheduler
     *  cannot honor (non-positive streamMaxPending, negative dispatch or
     *  outage latencies). */
    void validate() const;
};

SocConfig socConfig();

} // namespace polymath::target

#endif // POLYMATH_TARGETS_COMMON_MACHINE_CONFIG_H_
