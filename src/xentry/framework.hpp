// The Xentry framework facade: "a light-weight software layer between the
// hypervisor and VMs" (paper Section III).
//
// One Xentry instance owns the two detection techniques and drives a
// Machine through the full interception protocol:
//   VM exit  -> intercept, arm performance counters, run the handler
//   (during) -> runtime detection: fatal hardware exceptions + assertions
//   VM entry -> disarm counters, VM transition detection on the features
// The result is an Observation that says whether a soft error was
// detected, by which technique, and at which dynamic instruction.
#pragma once

#include <cstdint>

#include "analysis/artifacts.hpp"
#include "hv/machine.hpp"
#include "obs/metrics.hpp"
#include "xentry/assertions.hpp"
#include "xentry/exception_parser.hpp"
#include "xentry/features.hpp"
#include "xentry/transition_detector.hpp"

namespace xentry {

/// Which technique produced a detection (paper Fig. 8's legend).
enum class Technique : std::uint8_t {
  None = 0,
  HardwareException,
  SoftwareAssertion,
  VmTransition,
  /// Extension: Section VI's selective stack-value redundancy.
  StackRedundancy,
  /// Extension: control-flow integrity against the statically computed
  /// CFG (legal-edge replay + analyzer-derived range assertions).
  ControlFlow,
  /// Extension: timing-envelope detection — the armed performance
  /// counters at VM entry are checked against the statically computed
  /// per-exit-reason [BCET, WCET] envelope and per-counter envelopes.
  Timing,
};

inline constexpr int kNumTechniques = 7;

std::string_view technique_name(Technique t);

struct XentryConfig {
  /// Hardware-exception parsing + software assertions.  The Machine must
  /// be built with MicrovisorOptions::assertions matching this flag (the
  /// assertions live in hypervisor code).
  bool runtime_detection = true;
  /// VM transition detection at every VM entry (needs a trained model).
  bool transition_detection = true;
  /// Control-flow-integrity detection: replay each run's retired trace
  /// against the statically computed legal-edge sets and check derived
  /// range assertions at the VM-entry gate.  Needs analysis artifacts
  /// via Xentry::set_analysis; off by default — when off, observe() is
  /// bit-identical to a build without the analysis subsystem.
  bool control_flow_detection = false;
  /// Timing-envelope detection: at every VM entry the performance
  /// counters retired by the handler run are checked against the
  /// statically computed per-entry-point envelope (cycle model plus
  /// per-counter clocks).  Needs analysis artifacts via
  /// Xentry::set_analysis; forces counter arming when active; off by
  /// default — when off, observe() is bit-identical to a build without
  /// timing envelopes.
  bool timing_detection = false;
  /// Execution engine for the machines driven under this configuration.
  /// Consumed by the campaign runner, which sets it on every machine it
  /// builds; standalone Machine users call Machine::set_execution_engine
  /// directly.
  sim::EngineKind engine = sim::EngineKind::Fast;
};

struct Observation {
  hv::RunResult run;
  FeatureVector features;
  bool detected = false;
  Technique technique = Technique::None;
  /// Dynamic instruction index at which detection fired (trap step for
  /// runtime detection, VM entry for transition detection).
  std::uint64_t detection_step = 0;
};

class Xentry {
 public:
  explicit Xentry(const XentryConfig& config = {}) : cfg_(config) {}

  XentryConfig& config() { return cfg_; }
  const XentryConfig& config() const { return cfg_; }
  TransitionDetector& detector() { return detector_; }
  const TransitionDetector& detector() const { return detector_; }
  AssertionRegistry& assertions() { return registry_; }
  const ExceptionParser& parser() const { return parser_; }

  /// Installs the trained classification model (flattened rules).
  void set_model(ml::RuleSet rules) { detector_.set_model(std::move(rules)); }

  /// Installs static-analysis artifacts for control-flow-integrity
  /// detection (borrowed, must outlive this Xentry; nullptr detaches).
  /// Derived range assertions are registered into the assertion registry
  /// under the reserved id partition so reports can name which derived
  /// invariant a fault violated.
  void set_analysis(const analysis::AnalysisArtifacts* artifacts);

  /// Points framework-level metrics at a registry (shard-local; the
  /// caller owns it and must keep it alive).  Handles are resolved once
  /// here so observe() bumps plain cells — no name lookups on the hot
  /// path.  Framework metrics (detections per technique, handler-length
  /// and detection-latency histograms) are on exactly while a registry is
  /// attached; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Runs one activation under full Xentry interception and classifies
  /// the outcome.  Counter arming follows the config: transition
  /// detection needs the counters; runtime detection alone does not.
  Observation observe(hv::Machine& machine, const hv::Activation& activation,
                      hv::RunOptions opts = {});

  /// Whether observe() arms the performance counters: transition
  /// detection and timing envelopes read them, nothing else does.  An
  /// unarmed run reports all-zero counters (and features).
  bool arms_counters() const {
    return cfg_.transition_detection || timing_active();
  }

 private:
  void record_detection_metrics(const Observation& obs);
  void check_control_flow(hv::Machine& machine,
                          const hv::Activation& activation,
                          const std::vector<sim::Addr>& trace,
                          bool reached_vm_entry, Observation& obs);
  void check_timing_envelope(hv::Machine& machine,
                             const hv::Activation& activation,
                             Observation& obs);

  /// Pre-resolved metric handles (see set_metrics).  `observations` is
  /// the liveness gate: nullptr means metrics are off.
  struct MetricHandles {
    obs::Counter* observations = nullptr;
    obs::Counter* detections[kNumTechniques] = {};
    obs::Log2Histogram* handler_length = nullptr;
    obs::Log2Histogram* detection_latency = nullptr;
    obs::Counter* cfi_checks = nullptr;
    obs::Counter* cfi_edge_misses = nullptr;
    obs::Counter* cfi_derived_fires = nullptr;
    obs::Counter* timing_checks = nullptr;
    obs::Counter* timing_cycle_misses = nullptr;
    obs::Counter* timing_counter_misses = nullptr;
  };

  bool cfi_active() const {
    return cfg_.control_flow_detection && analysis_ != nullptr;
  }

  bool timing_active() const {
    return cfg_.timing_detection && analysis_ != nullptr &&
           analysis_->timing.valid_count() > 0;
  }

  XentryConfig cfg_;
  ExceptionParser parser_;
  AssertionRegistry registry_;
  TransitionDetector detector_;
  MetricHandles metrics_{};
  const analysis::AnalysisArtifacts* analysis_ = nullptr;
  /// Trace sink observe() attaches when CFI is active and the caller did
  /// not supply one (reused across observations).
  std::vector<sim::Addr> scratch_trace_;
};

}  // namespace xentry
