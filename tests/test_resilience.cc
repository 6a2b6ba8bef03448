/**
 * @file
 * Resilience-layer tests: multi-error parser recovery, unregistered-domain
 * degradation to the host CPU, deterministic seeded fault injection,
 * DMA retry/backoff accounting, degradation policies, and the zero-cost
 * guarantee when the fault model is disabled.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/diagnostics.h"
#include "pmlang/parser.h"
#include "soc/fault.h"
#include "soc/soc.h"
#include "workloads/suite.h"

namespace polymath {
namespace {

using soc::DegradationPolicy;
using soc::FaultConfig;
using soc::FaultModel;
using soc::SocRuntime;

// ---------------------------------------------------------------------------
// DiagnosticEngine.
// ---------------------------------------------------------------------------

TEST(Diagnostics, CountsAndFormatsBySeverity)
{
    DiagnosticEngine diag;
    EXPECT_TRUE(diag.empty());
    diag.error("bad thing", SourceLoc{3, 7});
    diag.warning("odd thing");
    diag.note("context");
    EXPECT_EQ(diag.errorCount(), 1u);
    EXPECT_EQ(diag.warningCount(), 1u);
    EXPECT_TRUE(diag.hasErrors());
    EXPECT_NE(diag.str().find("3:7: error: bad thing"), std::string::npos);
    EXPECT_NE(diag.str().find("warning: odd thing"), std::string::npos);
    EXPECT_THROW(diag.throwIfErrors(), UserError);
    diag.clear();
    EXPECT_FALSE(diag.hasErrors());
    diag.warning("only warning");
    EXPECT_NO_THROW(diag.throwIfErrors());
}

// ---------------------------------------------------------------------------
// Parser error recovery.
// ---------------------------------------------------------------------------

TEST(ParserRecovery, OneFileYieldsAllSyntaxErrors)
{
    // Three independent syntax errors in one component: a malformed index
    // declaration, a statement missing '=', and a trailing bad statement.
    const std::string source =
        "main(input float x, output float y) {\n"
        "  index i[0:;\n"
        "  y x + 1;\n"
        "  float z\n"
        "}\n";
    DiagnosticEngine diag;
    lang::parseWithRecovery(source, diag);
    EXPECT_GE(diag.errorCount(), 3u) << diag.str();
    // Every diagnostic carries a usable source location.
    for (const auto &d : diag.diagnostics())
        EXPECT_TRUE(d.loc.valid()) << d.str();
}

TEST(ParserRecovery, PartialProgramSurvivesBadStatement)
{
    const std::string source =
        "main(input float x, output float y) {\n"
        "  float a;\n"
        "  a = $$$;\n" // lexical garbage would not recover; use syntax
        "  y = x;\n"
        "}\n";
    // '$' is a lexical error: the whole parse degrades to one diagnostic.
    DiagnosticEngine lex_diag;
    const auto none = lang::parseWithRecovery(source, lex_diag);
    EXPECT_TRUE(lex_diag.hasErrors());
    EXPECT_TRUE(none.components.empty());

    // A syntactic error instead: surrounding statements still parse.
    const std::string syntactic =
        "main(input float x, output float y) {\n"
        "  float a;\n"
        "  a = ;\n"
        "  y = x;\n"
        "}\n";
    DiagnosticEngine diag;
    const auto prog = lang::parseWithRecovery(syntactic, diag);
    EXPECT_EQ(diag.errorCount(), 1u) << diag.str();
    ASSERT_EQ(prog.components.size(), 1u);
    EXPECT_EQ(prog.components[0].body.size(), 2u); // decl + y = x
}

TEST(ParserRecovery, RecoversAcrossComponents)
{
    const std::string source =
        "broken(input float x { }\n" // missing ')' in the signature
        "fine(input float x, output float y) { y = x; }\n";
    DiagnosticEngine diag;
    const auto prog = lang::parseWithRecovery(source, diag);
    EXPECT_GE(diag.errorCount(), 1u);
    ASSERT_GE(prog.components.size(), 1u);
    EXPECT_EQ(prog.components.back().name, "fine");
}

TEST(ParserRecovery, PlainParseStillThrowsOnFirstError)
{
    EXPECT_THROW(lang::parse("main(output float y) { y = ; y = ; }"),
                 UserError);
}

// ---------------------------------------------------------------------------
// Unregistered-domain degradation in lower::compile.
// ---------------------------------------------------------------------------

TEST(Degradation, UnregisteredDomainFallsBackToHostWithWarning)
{
    auto graph = wl::buildGraph(
        "main(input float x[16], output float y) {"
        " index i[0:15]; y = sum[i](x[i]*x[i]); }");
    lower::AcceleratorRegistry empty;

    // Without a DiagnosticEngine the historical behavior holds.
    EXPECT_THROW(
        lower::compileProgram(*graph, empty, lang::Domain::DA),
        UserError);

    // With one, compilation completes on a host-CPU partition.
    DiagnosticEngine diag;
    const auto compiled =
        lower::compileProgram(*graph, empty, lang::Domain::DA, &diag);
    EXPECT_FALSE(diag.hasErrors());
    EXPECT_GE(diag.warningCount(), 1u);
    ASSERT_FALSE(compiled.partitions.empty());
    for (const auto &partition : compiled.partitions)
        EXPECT_EQ(partition.accel, lower::kHostAccel);

    // The SoC runtime executes the degraded program on the host.
    SocRuntime runtime;
    target::WorkloadProfile profile;
    const auto result = runtime.execute(compiled, profile);
    EXPECT_GT(result.total.seconds, 0.0);
    EXPECT_EQ(result.transferSeconds, 0.0); // no accelerator, no DMA
}

// ---------------------------------------------------------------------------
// SocConfig validation.
// ---------------------------------------------------------------------------

TEST(SocConfigValidate, RejectsNonPositiveAndNegativeFields)
{
    target::SocConfig good = target::socConfig();
    EXPECT_NO_THROW(good.validate());

    target::SocConfig bad = good;
    bad.dmaGBs = 0.0;
    EXPECT_THROW(bad.validate(), UserError);
    bad = good;
    bad.perTransferUs = -1.0;
    EXPECT_THROW(bad.validate(), UserError);
    bad = good;
    bad.hostWatts = 0.0;
    EXPECT_THROW(bad.validate(), UserError);
    bad = good;
    bad.dramPjPerByte = -0.5;
    EXPECT_THROW(bad.validate(), UserError);
    bad = good;
    bad.hostFallbackEff = 0.0;
    EXPECT_THROW(bad.validate(), UserError);
    bad = good;
    bad.hostFallbackEff = 1.5;
    EXPECT_THROW(bad.validate(), UserError);

    // The SocRuntime constructor enforces validation.
    bad = good;
    bad.dmaGBs = -3.0;
    EXPECT_THROW(SocRuntime{bad}, UserError);
}

TEST(FaultConfigValidate, RejectsBadRatesAndBudgets)
{
    FaultConfig fc;
    fc.dmaFailureRate = 1.5;
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.dmaFailureRate = -0.1;
    EXPECT_THROW(FaultModel{fc}, UserError);
    // NaN fails every comparison; it must not pass as "no faults".
    fc.dmaFailureRate = std::nan("");
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.dmaFailureRate = 0.0;
    fc.accelUnavailableRate = std::nan("");
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.accelUnavailableRate = 0.0;
    fc.watchdogRate = std::nan("");
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.watchdogRate = 0.0;
    fc.dmaRetryBackoffUs = std::nan("");
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.dmaRetryBackoffUs = 50.0;
    fc.maxBackoffUs = std::nan("");
    EXPECT_THROW(FaultModel{fc}, UserError);
    fc.maxBackoffUs = 10000.0;
    fc.dmaFailureRate = 0.5;
    fc.maxDmaRetries = -1;
    EXPECT_THROW(FaultModel{fc}, UserError);
}

// ---------------------------------------------------------------------------
// Fault injection on the SoC.
// ---------------------------------------------------------------------------

class ResilienceFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const auto &app = wl::tableIV().front(); // BrainStimul
        registry_ = target::standardRegistry();
        compiled_ = wl::compileBenchmark(app.source, app.buildOpts,
                                         registry_, lang::Domain::None);
        profile_ = app.profile;
        for (const auto &kernel : app.kernels)
            hostEff_[kernel.accel] = kernel.cpuEff;
    }

    static FaultConfig faultyConfig(double rate, uint64_t seed = 42)
    {
        return FaultConfig::forRate(rate, seed);
    }

    lower::AcceleratorRegistry registry_;
    lower::CompiledProgram compiled_;
    target::WorkloadProfile profile_;
    std::map<std::string, double> hostEff_;
};

TEST_F(ResilienceFixture, DisabledFaultModelIsBitIdentical)
{
    SocRuntime plain;
    SocRuntime with_model(target::socConfig(),
                          FaultModel{}); // rates all zero => disabled
    const auto a = plain.execute(compiled_, profile_, {}, hostEff_);
    const auto b = with_model.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_EQ(a.total.seconds, b.total.seconds);
    EXPECT_EQ(a.total.joules, b.total.joules);
    EXPECT_EQ(a.transferSeconds, b.transferSeconds);
    EXPECT_EQ(a.transferJoules, b.transferJoules);
    EXPECT_EQ(b.reliability.faultsInjected, 0);
    EXPECT_EQ(b.reliability.hostFallbacks, 0);
    EXPECT_EQ(b.reliability.availability(), 1.0);
}

TEST_F(ResilienceFixture, SameSeedSameReliabilityReport)
{
    SocRuntime a(target::socConfig(), FaultModel(faultyConfig(0.5, 7)));
    SocRuntime b(target::socConfig(), FaultModel(faultyConfig(0.5, 7)));
    const auto ra = a.execute(compiled_, profile_, {}, hostEff_);
    const auto rb = b.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_EQ(ra.total.seconds, rb.total.seconds);
    EXPECT_EQ(ra.total.joules, rb.total.joules);
    EXPECT_EQ(ra.reliability.faultsInjected,
              rb.reliability.faultsInjected);
    EXPECT_EQ(ra.reliability.retriesSpent, rb.reliability.retriesSpent);
    EXPECT_EQ(ra.reliability.hostFallbacks, rb.reliability.hostFallbacks);
    EXPECT_EQ(ra.reliability.events.size(), rb.reliability.events.size());
    EXPECT_EQ(ra.reliability.str(), rb.reliability.str());

    // Repeated execution of the same runtime is also reproducible.
    const auto again = a.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_EQ(ra.total.seconds, again.total.seconds);
    EXPECT_EQ(ra.reliability.str(), again.reliability.str());
}

TEST_F(ResilienceFixture, FaultsInjectOverheadAndReportIt)
{
    SocRuntime faulty(target::socConfig(), FaultModel(faultyConfig(0.5, 7)));
    SocRuntime clean;
    const auto r = faulty.execute(compiled_, profile_, {}, hostEff_);
    const auto base = clean.execute(compiled_, profile_, {}, hostEff_);

    EXPECT_GT(r.reliability.faultsInjected, 0);
    EXPECT_EQ(r.reliability.faultFreeSeconds, base.total.seconds);
    EXPECT_GE(r.total.seconds, base.total.seconds);
    EXPECT_DOUBLE_EQ(r.reliability.actualSeconds, r.total.seconds);
    EXPECT_GE(r.reliability.slowdown(), 1.0);
    EXPECT_LE(r.reliability.availability(), 1.0);
    EXPECT_GE(r.reliability.availability(), 0.0);
}

TEST_F(ResilienceFixture, CertainDmaFailureDegradesEveryPartition)
{
    FaultConfig fc;
    fc.seed = 11;
    fc.dmaFailureRate = 1.0; // every attempt fails => retries then host
    SocRuntime runtime(target::socConfig(), FaultModel(fc));
    const auto r = runtime.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_GT(r.reliability.offloadAttempts, 0);
    EXPECT_EQ(r.reliability.hostFallbacks, r.reliability.offloadAttempts);
    EXPECT_EQ(r.reliability.availability(), 0.0);
    // The retry budget was spent before each fallback.
    EXPECT_EQ(r.reliability.retriesSpent,
              r.reliability.offloadAttempts * fc.maxDmaRetries);
    // Degraded-to-host means no accelerator DMA was charged.
    EXPECT_EQ(r.transferSeconds, 0.0);
    // ... and the result matches a run that never offloads, plus backoff.
    SocRuntime clean;
    const auto host_only =
        runtime.execute(compiled_, profile_, {"<none>"}, hostEff_);
    EXPECT_GT(r.total.seconds, host_only.total.seconds);
}

TEST_F(ResilienceFixture, DegradedFallbackRunsBelowNativeEfficiency)
{
    // A fault-triggered fallback executes the portable host lowering, not
    // the tuned native library, so it must cost strictly more time than
    // both a deliberate host-only run and a fallback at native
    // efficiency (hostFallbackEff = 1).
    FaultConfig fc;
    fc.seed = 7;
    fc.dmaFailureRate = 1.0; // every partition degrades immediately
    fc.dmaPolicy = DegradationPolicy::HostFallback;
    SocRuntime degraded(target::socConfig(), FaultModel(fc));
    auto native_cfg = target::socConfig();
    native_cfg.hostFallbackEff = 1.0;
    SocRuntime native(native_cfg, FaultModel(fc));

    const auto d = degraded.execute(compiled_, profile_, {}, hostEff_);
    const auto n = native.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_EQ(d.reliability.hostFallbacks, d.reliability.offloadAttempts);
    EXPECT_GT(d.total.seconds, n.total.seconds);

    const auto host_only =
        native.execute(compiled_, profile_, {"<none>"}, hostEff_);
    EXPECT_GT(d.total.seconds, host_only.total.seconds);
}

TEST_F(ResilienceFixture, AcceleratorLossOpensAnOutageAndMigrates)
{
    // A lost accelerator goes down for SocConfig::streamOutageSeconds.
    // The partition that drew the loss, and any later one homed there
    // inside the window, moves to a compatible healthy accelerator, or
    // else degrades to the host. At rate 1 no partition runs at home.
    FaultConfig fc;
    fc.seed = 7;
    fc.accelUnavailableRate = 1.0;
    SocRuntime runtime(target::socConfig(), FaultModel(fc));
    const auto r = runtime.execute(compiled_, profile_, {}, hostEff_);
    const auto home = runtime.estimate(compiled_, profile_, {}, hostEff_);
    const auto host =
        runtime.estimate(compiled_, profile_, {"<none>"}, hostEff_);
    ASSERT_EQ(r.partitions.size(), home.partitions.size());

    int64_t on_host = 0;
    int64_t migrated = 0;
    for (size_t p = 0; p < r.partitions.size(); ++p) {
        const std::string &machine = r.partitions[p].machine;
        EXPECT_NE(machine, home.partitions[p].machine) << p;
        if (machine == host.partitions[p].machine)
            ++on_host;
        else
            ++migrated;
    }
    EXPECT_GT(migrated, 0);
    EXPECT_GT(on_host, 0);
    EXPECT_EQ(r.reliability.offloadAttempts,
              static_cast<int64_t>(r.partitions.size()));
    EXPECT_EQ(r.reliability.hostFallbacks, on_host);
    // Only a draw at a healthy home injects a fault; a partition that
    // finds its home already down migrates without one.
    EXPECT_GT(r.reliability.accelFaults, 0);
    EXPECT_LE(r.reliability.accelFaults, r.reliability.offloadAttempts);
    int64_t fell_back = 0;
    for (const auto &event : r.reliability.events) {
        EXPECT_EQ(event.fault, soc::FaultClass::AcceleratorUnavailable);
        fell_back += event.fellBack ? 1 : 0;
    }
    EXPECT_LE(fell_back, on_host);
}

TEST_F(ResilienceFixture, DmaBackoffLatencyIsExponentialAndAccounted)
{
    FaultConfig fc;
    fc.seed = 3;
    fc.dmaFailureRate = 1.0;
    fc.maxDmaRetries = 4;
    fc.dmaRetryBackoffUs = 100.0;
    const FaultModel model(fc);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(0), 100e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(1), 200e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(3), 800e-6);

    // End-to-end: every partition burns the full backoff series, then
    // falls back; the total must exceed the pure-fallback runtime by
    // exactly the deterministic backoff sum. hostFallbackEff = 1 makes
    // the degraded partitions run at native-library efficiency so the
    // only delta left is the backoff latency itself.
    auto cfg = target::socConfig();
    cfg.hostFallbackEff = 1.0;
    SocRuntime runtime(cfg, model);
    const auto r = runtime.execute(compiled_, profile_, {}, hostEff_);
    const auto host_only =
        runtime.execute(compiled_, profile_, {"<none>"}, hostEff_);
    const double backoff_sum =
        (100e-6 + 200e-6 + 400e-6 + 800e-6) *
        static_cast<double>(r.reliability.offloadAttempts);
    const double tol =
        1e-9 * std::max(1.0, host_only.total.seconds) + 1e-12;
    EXPECT_NEAR(r.total.seconds - host_only.total.seconds, backoff_sum,
                tol);
}

TEST(FaultModelBackoff, ExponentialSeriesClampsAtConfiguredCap)
{
    FaultConfig fc;
    fc.dmaRetryBackoffUs = 100.0;
    fc.maxBackoffUs = 400.0;
    const FaultModel model(fc);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(0), 100e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(1), 200e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(2), 400e-6);
    // Past the cap the series is flat — and huge attempt counts must not
    // overflow the shift into a bogus latency.
    EXPECT_DOUBLE_EQ(model.backoffSeconds(3), 400e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(63), 400e-6);
    EXPECT_DOUBLE_EQ(model.backoffSeconds(1000), 400e-6);

    FaultConfig bad;
    bad.maxBackoffUs = -1.0;
    EXPECT_THROW(FaultModel{bad}, UserError);
}

TEST(ReliabilityEvents, LogKeepsFirstEventsAndCountsTheRest)
{
    soc::ReliabilityReport report;
    const size_t overflow = soc::ReliabilityReport::kMaxEvents + 44;
    for (size_t i = 0; i < overflow; ++i) {
        report.addEvent(soc::FaultEvent{soc::FaultClass::DmaFailure,
                                        static_cast<int>(i), "tabla", 1,
                                        false});
    }
    EXPECT_EQ(report.events.size(), soc::ReliabilityReport::kMaxEvents);
    EXPECT_EQ(report.droppedEvents, 44);
    // The bound stays honest in the rendering.
    EXPECT_NE(report.str().find("+44 more events dropped"),
              std::string::npos);

    // Stream-style accumulation merges under the same bound.
    soc::ReliabilityReport other;
    other.addEvent(soc::FaultEvent{});
    other.droppedEvents = 2;
    report += other;
    EXPECT_EQ(report.events.size(), soc::ReliabilityReport::kMaxEvents);
    EXPECT_EQ(report.droppedEvents, 47); // 44 + 1 overflowed + 2 carried
}

TEST_F(ResilienceFixture, AbortPolicyFailsStop)
{
    FaultConfig fc;
    fc.seed = 5;
    fc.dmaFailureRate = 1.0;
    fc.dmaPolicy = DegradationPolicy::Abort;
    SocRuntime runtime(target::socConfig(), FaultModel(fc));
    EXPECT_THROW(runtime.execute(compiled_, profile_, {}, hostEff_), UserError);

    FaultConfig accel;
    accel.seed = 5;
    accel.accelUnavailableRate = 1.0;
    accel.accelPolicy = DegradationPolicy::Abort;
    SocRuntime runtime2(target::socConfig(), FaultModel(accel));
    EXPECT_THROW(runtime2.execute(compiled_, profile_, {}, hostEff_), UserError);
}

TEST_F(ResilienceFixture, WatchdogReexecutionChargesWastedRuns)
{
    FaultConfig fc;
    fc.seed = 9;
    fc.watchdogRate = 1.0; // always fires => re-executes, then degrades
    fc.maxReexecutions = 2;
    SocRuntime runtime(target::socConfig(), FaultModel(fc));
    const auto r = runtime.execute(compiled_, profile_, {}, hostEff_);
    EXPECT_GT(r.reliability.watchdogFaults, 0);
    EXPECT_EQ(r.reliability.hostFallbacks, r.reliability.offloadAttempts);
    EXPECT_EQ(r.reliability.retriesSpent,
              r.reliability.offloadAttempts * fc.maxReexecutions);
    // Every wasted run moved its data: the budget's re-runs plus the
    // overrun that exhausted it, then the host moves nothing.
    const auto clean = runtime.estimate(compiled_, profile_, {}, hostEff_);
    EXPECT_GT(clean.dmaBytes, 0);
    EXPECT_EQ(r.dmaBytes, (fc.maxReexecutions + 1) * clean.dmaBytes);
    // Wasted accelerator runs make this strictly worse than a clean
    // host-only execution.
    const auto host_only =
        runtime.execute(compiled_, profile_, {"<none>"}, hostEff_);
    EXPECT_GT(r.total.seconds, host_only.total.seconds);
}

TEST_F(ResilienceFixture, RaisingRatesOnlyAddsFaults)
{
    // Stateless threshold draws make fault sets monotone in the rate.
    int64_t prev_faults = -1;
    double prev_seconds = -1.0;
    for (double rate : {0.0, 0.1, 0.3, 0.6, 1.0}) {
        SocRuntime runtime(target::socConfig(),
                           FaultModel(faultyConfig(rate, 21)));
        const auto r = runtime.execute(compiled_, profile_, {}, hostEff_);
        EXPECT_GE(r.reliability.faultsInjected, prev_faults);
        EXPECT_GE(r.total.seconds, prev_seconds);
        prev_faults = r.reliability.faultsInjected;
        prev_seconds = r.total.seconds;
    }
}

} // namespace
} // namespace polymath
