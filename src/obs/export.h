/**
 * @file
 * Trace/metrics exporters (docs/OBSERVABILITY.md).
 *
 * The Chrome-trace exporter renders a TraceRecorder's events in the
 * trace-event JSON format that chrome://tracing and https://ui.perfetto.dev
 * load directly: one "complete" ('X') event per span with ts/dur in
 * microseconds, instant ('i') events for point occurrences, and process
 * metadata naming the wall-clock (pid 1) and SoC virtual-time (pid 2)
 * timelines.
 */
#ifndef POLYMATH_OBS_EXPORT_H_
#define POLYMATH_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace polymath::obs {

/** Renders the recorded events as a Chrome-trace JSON document. */
std::string chromeTraceJson(const TraceRecorder &recorder);

/** Renders one event as a Chrome-trace JSON object (used both by
 *  chromeTraceJson and by flight-recorder dumps). */
std::string traceEventJson(const TraceEvent &event);

/** Writes chromeTraceJson() to @p path. @throws UserError on I/O error. */
void writeChromeTrace(const TraceRecorder &recorder,
                      const std::string &path);

/**
 * Prometheus text exposition (version 0.0.4) of a metrics snapshot.
 * Metric names are sanitized to [a-zA-Z0-9_:] and prefixed with
 * "polymath_"; counters render as `counter`, gauges as `gauge`, and
 * latency histograms as `summary` with quantile{0.5,0.99,0.999} sample
 * lines. Deterministic: maps iterate sorted, numbers use
 * locale-independent to_chars.
 */
std::string prometheusText(const MetricsSnapshot &snapshot);

} // namespace polymath::obs

#endif // POLYMATH_OBS_EXPORT_H_
