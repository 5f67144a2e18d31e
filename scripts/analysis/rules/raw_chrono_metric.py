"""raw-chrono-metric: naked steady_clock/system_clock/
high_resolution_clock ::now() calls outside the sanctioned timing
modules. Ad-hoc clock math scattered through subsystems is how latency
accounting drifts (mixed clocks, ms-vs-us confusion, unrecorded timings
the metrics layer never sees). Subsystem code times an interval through
the obs::ScopedSpan / obs::ScopedTrace that covers it (src/obs/trace.h;
handed a histogram, the span records into it and compiles out under
AUTOINDEX_METRICS=OFF), or through util::Stopwatch
(src/util/metrics.h) for an interval that has no span."""

import re

from .. import framework

# Modules that implement or legitimately own raw clock reads: the metrics
# layer itself, the tracing layer built on it, the workload drivers
# (open-loop pacing needs raw timepoints), and benchmarks.
ALLOW_PREFIXES = (
    "src/util/metrics.",
    "src/obs/",
    "src/workload/",
    "bench/",
)

_CLOCK_NOW_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*"
    r"(?:::|\s)\s*now\s*\(")


@framework.register
class RawChronoMetric(framework.Rule):
    name = "raw-chrono-metric"
    description = "raw chrono ::now() outside util/metrics, workload, bench"

    def check(self, sf, ctx):
        if any(sf.rel.startswith(p) for p in ALLOW_PREFIXES):
            return
        for lineno, code in sf.code_lines:
            if _CLOCK_NOW_RE.search(code):
                yield self.finding(
                    sf, lineno,
                    "raw chrono clock read; time through obs::ScopedSpan "
                    "with a histogram (src/obs/trace.h), or util::Stopwatch "
                    "(src/util/metrics.h) where no span covers the interval")
