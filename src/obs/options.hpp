// Observability configuration.
//
// One Options struct gates every telemetry layer: the metrics registry
// (counters / gauges / log2 histograms), the phase/span trace recorder
// (Chrome trace-event JSON), and the per-machine SDC flight recorder.
// Everything defaults to OFF, and every collection site in the hot path
// reduces to a single well-predicted null-pointer or bool check when its
// layer is disabled — the overhead contract (<= 2% disabled, <= 10%
// fully enabled on the micro_campaign configuration) is enforced by
// `bench/obs_overhead`.
#pragma once

namespace xentry::obs {

struct Options {
  /// Per-shard MetricsRegistry collection (detections per technique,
  /// latency/handler-length histograms, snapshot/restore timings),
  /// merged deterministically at campaign end.
  bool metrics = false;
  /// Structured span tracing of campaign phases and per-VM-exit spans,
  /// exportable as Chrome trace-event JSON (Perfetto-loadable).
  bool tracing = false;
  /// Ring buffer of the last N VM exits per machine, dumped into the
  /// InjectionRecord when an outcome is SDC / crash class.
  bool flight_recorder = false;

  /// Fault-propagation forensics: golden/faulty lockstep replay of
  /// injections that end in SDC, app crash, or an undetected escape,
  /// bisecting to the first architectural divergence and sampling the
  /// corruption taint map.  Costs a bounded re-execution of the faulted
  /// window per qualifying injection; record digests stay bit-identical
  /// either way (the evidence rides outside the digested fields).  Not
  /// part of any()/all(): forensics is a replay layer, not a hot-path
  /// collection site, and obs_overhead gates it separately.
  bool forensics = false;

  /// Ring depth for the flight recorder (frames kept per machine).
  int flight_recorder_depth = 32;

  /// Replay 1-in-N of the *undetected-escape* qualifiers (deterministic
  /// per-shard counter).  AppSdc/AppCrash records always replay — the
  /// forensics contract promises every SDC a first-divergence entry.
  /// The replay's chunk, step budget and taint-sample cap are constants
  /// of fault/lockstep.cpp.
  int forensics_sample_every = 1;

  /// True when any collection layer is live.
  constexpr bool any() const { return metrics || tracing || flight_recorder; }

  /// Everything on, default sizing — the `obs_overhead` "fully enabled"
  /// configuration.
  static constexpr Options all() {
    Options o;
    o.metrics = true;
    o.tracing = true;
    o.flight_recorder = true;
    return o;
  }
};

}  // namespace xentry::obs
