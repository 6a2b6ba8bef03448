#include "passes/pass.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "passes/passes.h"

namespace polymath::pass {

bool
Pass::run(ir::Graph &graph)
{
    bool changed = false;
    // Bottom-up: transform component subgraphs first so this level sees
    // their simplified form.
    for (ir::Node &node : graph.nodePool()) {
        if (node.live() && node.subgraph)
            changed |= run(*node.subgraph);
    }
    changed |= runOnLevel(graph);
    return changed;
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    passes_.push_back(std::move(pass));
}

std::vector<PassResult>
PassManager::run(ir::Graph &graph) const
{
    auto &recorder = obs::TraceRecorder::global();
    auto &metrics = obs::MetricsRegistry::global();
    std::vector<PassResult> results;
    for (const auto &pass : passes_) {
        PassResult r;
        r.name = pass->name();
        // One timing measurement serves both the PassResult and the
        // trace span, so the two views can never disagree.
        const int64_t span_ts = recorder.enabled() ? recorder.nowMicros()
                                                   : 0;
        const auto start = std::chrono::steady_clock::now();
        r.changed = pass->run(graph);
        r.micros = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
        if (recorder.enabled()) {
            recorder.completeReal(
                "pass:" + r.name, "pass", span_ts, r.micros,
                {obs::TraceArg::num("changed", r.changed ? 1 : 0)});
        }
        metrics.counter("pass." + r.name + ".runs").add(1);
        metrics.counter("pass." + r.name + ".micros").add(r.micros);
        if (r.changed)
            metrics.counter("pass." + r.name + ".changed").add(1);
        results.push_back(std::move(r));
    }
    // One validation per pipeline invocation covers every pass that
    // changed the graph; it is skipped entirely when the run was a
    // no-op (the graph is bit-identical), and its cost is attributed
    // separately from the passes proper.
    const bool any_changed =
        std::any_of(results.begin(), results.end(),
                    [](const PassResult &r) { return r.changed; });
    if (any_changed) {
        const auto vstart = std::chrono::steady_clock::now();
        graph.validate();
        const int64_t vmicros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - vstart)
                .count();
        metrics.counter("pass.validate.runs").add(1);
        metrics.counter("pass.validate.micros").add(vmicros);
    }
    return results;
}

std::vector<PassResult>
PassManager::runToFixpoint(ir::Graph &graph, int max_rounds) const
{
    obs::Span span("pass:fixpoint", "pass");
    std::vector<PassResult> all;
    int rounds = 0;
    for (int round = 0; round < max_rounds; ++round) {
        auto results = run(graph);
        ++rounds;
        bool changed = false;
        for (const auto &r : results)
            changed |= r.changed;
        all.insert(all.end(), std::make_move_iterator(results.begin()),
                   std::make_move_iterator(results.end()));
        if (!changed)
            break;
    }
    span.arg("rounds", rounds);
    return all;
}

PassManager
standardPipeline()
{
    PassManager pm;
    pm.add(createConstantFolding());
    pm.add(createSimplify());
    pm.add(createCse());
    pm.add(createAlgebraicCombination());
    pm.add(createDeadNodeElimination());
    return pm;
}

} // namespace polymath::pass
