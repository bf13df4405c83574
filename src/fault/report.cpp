#include "fault/report.hpp"

#include <ostream>
#include <sstream>

#include "fault/stats.hpp"

namespace xentry::fault {

void write_records_csv(std::ostream& os,
                       const std::vector<InjectionRecord>& records) {
  os << "reason,reason_code,seed,vcpu,at_step,reg,bit,injected,activated,"
        "consequence,detected,technique,latency,trap,assert_id,"
        "trace_diverged,undetected_class,vmer,rt,br,rm,wm\n";
  for (const InjectionRecord& r : records) {
    os << hv::handler_symbol(r.reason) << ',' << r.reason.code() << ','
       << r.activation_seed << ',' << r.vcpu << ',' << r.injection.at_step
       << ',' << sim::reg_name(r.injection.reg) << ',' << r.injection.bit
       << ',' << (r.injected ? 1 : 0) << ',' << (r.activated ? 1 : 0) << ','
       << consequence_name(r.consequence) << ',' << (r.detected ? 1 : 0)
       << ',' << technique_name(r.technique) << ',' << r.latency << ','
       << sim::trap_name(r.trap) << ',' << r.assert_id << ','
       << (r.trace_diverged ? 1 : 0) << ','
       << undetected_class_name(r.undetected) << ',' << r.features.vmer
       << ',' << r.features.rt << ',' << r.features.br << ','
       << r.features.rm << ',' << r.features.wm << '\n';
  }
}

std::string summarize(const std::vector<InjectionRecord>& records) {
  std::ostringstream os;
  const CoverageBreakdown cov = coverage_breakdown(records);
  os << "injections: " << records.size() << ", manifested: "
     << cov.manifested;
  if (!records.empty()) {
    os << " (" << 100.0 * static_cast<double>(cov.manifested) /
                     static_cast<double>(records.size())
       << "%)";
  }
  os << "\ncoverage: " << 100.0 * cov.coverage()
     << "%  [hw " << 100.0 * cov.share(cov.hw_exception) << "%, sw "
     << 100.0 * cov.share(cov.sw_assertion) << "%, vmt "
     << 100.0 * cov.share(cov.vm_transition) << "%";
  if (cov.stack_redundancy > 0) {
    os << ", stack " << 100.0 * cov.share(cov.stack_redundancy) << "%";
  }
  if (cov.control_flow > 0) {
    os << ", cfi " << 100.0 * cov.share(cov.control_flow) << "%";
  }
  if (cov.timing > 0) {
    os << ", timing " << 100.0 * cov.share(cov.timing) << "%";
  }
  os << ", undetected " << 100.0 * cov.share(cov.undetected) << "%]\n";

  os << "consequences:";
  for (const auto& [c, n] : consequence_histogram(records)) {
    os << ' ' << consequence_name(c) << '=' << n;
  }
  os << '\n';

  // Importance-sampled campaigns carry non-unit weights; report the
  // reweighted (uniform-equivalent) rates alongside the raw counts.
  bool weighted = false;
  for (const InjectionRecord& r : records) {
    if (r.weight != 1.0 || r.masked_weight != 0.0) {
      weighted = true;
      break;
    }
  }
  if (weighted) {
    const WeightedRates w = weighted_rates(records);
    os << "reweighted (uniform-equivalent): effective injections "
       << w.effective_injections << ", manifested "
       << 100.0 * w.manifested_rate() << "%, detected "
       << 100.0 * w.detected_rate() << "%, masked "
       << 100.0 * w.rate(Consequence::Masked) << "%, sdc "
       << 100.0 * w.rate(Consequence::AppSdc) << "%\n";
  }

  const UndetectedBreakdown und = undetected_breakdown(records);
  if (und.total > 0) {
    os << "undetected classes: mis=" << und.mis_classified
       << " stack=" << und.stack_values << " time=" << und.time_values
       << " other=" << und.other_values << '\n';
  }

  for (auto& [tech, lats] : latency_by_technique(records)) {
    os << technique_name(tech) << " latency p50/p95: "
       << latency_percentile(lats, 50) << '/' << latency_percentile(lats, 95)
       << " instructions (" << lats.size() << " detections)\n";
  }
  return os.str();
}

void write_forensics_jsonl(std::ostream& os,
                           const std::vector<InjectionRecord>& records) {
  // Every emitted name comes from a fixed internal vocabulary (handler
  // symbols, register/consequence/class names), so no JSON escaping is
  // needed.
  for (const InjectionRecord& r : records) {
    const obs::ForensicsRecord* fx = r.forensics();
    if (fx == nullptr) continue;
    os << "{\"handler\": \"" << hv::handler_symbol(r.reason)
       << "\", \"reason_code\": " << r.reason.code()
       << ", \"seed\": " << r.activation_seed << ", \"vcpu\": " << r.vcpu
       << ", \"at_step\": " << r.injection.at_step << ", \"reg\": \""
       << sim::reg_name(r.injection.reg) << "\", \"bit\": " << r.injection.bit
       << ", \"consequence\": \"" << consequence_name(r.consequence)
       << "\", \"detected\": " << (r.detected ? "true" : "false")
       << ", \"trace_diverged\": " << (r.trace_diverged ? "true" : "false")
       << ", \"undetected_heuristic\": \""
       << undetected_class_name(r.undetected) << "\", \"undetected\": \""
       << undetected_class_name(effective_undetected(r))
       << "\", \"forensics\": ";
    fx->write_json(os);
    os << "}\n";
  }
}

}  // namespace xentry::fault
