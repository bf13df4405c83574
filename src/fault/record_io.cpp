#include "fault/record_io.hpp"

#include <bit>

#include "obs/json.hpp"

namespace xentry::fault {

std::uint64_t digest_update(std::uint64_t h, const InjectionRecord& r) {
  h = fnv1a(h, static_cast<std::uint64_t>(r.reason.code()));
  h = fnv1a(h, r.activation_seed);
  h = fnv1a(h, static_cast<std::uint64_t>(r.vcpu));
  h = fnv1a(h, r.injection.at_step);
  h = fnv1a(h, static_cast<std::uint64_t>(r.injection.reg));
  h = fnv1a(h, static_cast<std::uint64_t>(r.injection.bit));
  h = fnv1a(h, r.injected);
  h = fnv1a(h, r.activated);
  h = fnv1a(h, static_cast<std::uint64_t>(r.consequence));
  h = fnv1a(h, r.detected);
  h = fnv1a(h, static_cast<std::uint64_t>(r.technique));
  h = fnv1a(h, r.latency);
  h = fnv1a(h, static_cast<std::uint64_t>(r.trap));
  h = fnv1a(h, r.assert_id);
  h = fnv1a(h, r.trace_diverged);
  h = fnv1a(h, static_cast<std::uint64_t>(r.undetected));
  for (std::int64_t f : r.features.as_array()) {
    h = fnv1a(h, static_cast<std::uint64_t>(f));
  }
  return h;
}

std::uint64_t records_digest(const std::vector<InjectionRecord>& records) {
  std::uint64_t h = kDigestBasis;
  for (const InjectionRecord& r : records) h = digest_update(h, r);
  return h;
}

namespace {

// -- binary frame -----------------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

struct ByteReader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > data.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t u32() {
    if (pos + 4 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data[pos++]))
           << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data[pos++]))
           << (8 * i);
    }
    return v;
  }
};

constexpr std::uint8_t kFlagInjected = 1u << 0;
constexpr std::uint8_t kFlagActivated = 1u << 1;
constexpr std::uint8_t kFlagDetected = 1u << 2;
constexpr std::uint8_t kFlagDiverged = 1u << 3;

void encode_binary(const InjectionRecord& r, std::string& out) {
  const std::size_t len_at = out.size();
  put_u32(out, 0);  // patched below
  const std::size_t payload_at = out.size();
  put_u8(out, static_cast<std::uint8_t>(r.reason.category));
  put_u32(out, static_cast<std::uint32_t>(r.reason.index));
  put_u64(out, r.activation_seed);
  put_u32(out, static_cast<std::uint32_t>(r.vcpu));
  put_u64(out, r.injection.at_step);
  put_u8(out, static_cast<std::uint8_t>(r.injection.reg));
  put_u32(out, static_cast<std::uint32_t>(r.injection.bit));
  std::uint8_t flags = 0;
  if (r.injected) flags |= kFlagInjected;
  if (r.activated) flags |= kFlagActivated;
  if (r.detected) flags |= kFlagDetected;
  if (r.trace_diverged) flags |= kFlagDiverged;
  put_u8(out, flags);
  put_u8(out, static_cast<std::uint8_t>(r.consequence));
  put_u8(out, static_cast<std::uint8_t>(r.technique));
  put_u64(out, r.latency);
  put_u8(out, static_cast<std::uint8_t>(r.trap));
  put_u32(out, r.assert_id);
  put_u8(out, static_cast<std::uint8_t>(r.undetected));
  for (std::int64_t f : r.features.as_array()) {
    put_u64(out, static_cast<std::uint64_t>(f));
  }
  put_u64(out, std::bit_cast<std::uint64_t>(r.weight));
  put_u64(out, std::bit_cast<std::uint64_t>(r.masked_weight));
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - payload_at);
  for (int i = 0; i < 4; ++i) {
    out[len_at + static_cast<std::size_t>(i)] =
        static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

bool decode_binary(std::string_view data, std::size_t& pos,
                   InjectionRecord& out) {
  ByteReader r{data, pos};
  const std::uint32_t len = r.u32();
  if (!r.ok || r.pos + len > data.size()) return false;
  const std::size_t frame_end = r.pos + len;
  InjectionRecord rec;
  const std::uint8_t cat = r.u8();
  const std::uint32_t idx = r.u32();
  rec.activation_seed = r.u64();
  rec.vcpu = static_cast<int>(r.u32());
  rec.injection.at_step = r.u64();
  const std::uint8_t reg = r.u8();
  rec.injection.bit = static_cast<int>(r.u32());
  const std::uint8_t flags = r.u8();
  const std::uint8_t cons = r.u8();
  const std::uint8_t tech = r.u8();
  rec.latency = r.u64();
  const std::uint8_t trap = r.u8();
  rec.assert_id = r.u32();
  const std::uint8_t undet = r.u8();
  std::int64_t f[kNumFeatures];
  for (std::int64_t& v : f) v = static_cast<std::int64_t>(r.u64());
  rec.weight = std::bit_cast<double>(r.u64());
  rec.masked_weight = std::bit_cast<double>(r.u64());
  if (!r.ok || r.pos > frame_end) return false;
  if (cat > static_cast<std::uint8_t>(hv::ExitCategory::Tasklet) ||
      reg >= static_cast<std::uint8_t>(sim::kNumArchRegs) ||
      cons >= static_cast<std::uint8_t>(kNumConsequences) ||
      tech >= static_cast<std::uint8_t>(kNumTechniques) ||
      trap > static_cast<std::uint8_t>(sim::TrapKind::StackCheck) ||
      undet > static_cast<std::uint8_t>(UndetectedClass::OtherValues)) {
    return false;
  }
  rec.reason = {static_cast<hv::ExitCategory>(cat), static_cast<int>(idx)};
  rec.injection.reg = static_cast<sim::Reg>(reg);
  rec.injected = (flags & kFlagInjected) != 0;
  rec.activated = (flags & kFlagActivated) != 0;
  rec.detected = (flags & kFlagDetected) != 0;
  rec.trace_diverged = (flags & kFlagDiverged) != 0;
  rec.consequence = static_cast<Consequence>(cons);
  rec.technique = static_cast<Technique>(tech);
  rec.trap = static_cast<sim::TrapKind>(trap);
  rec.undetected = static_cast<UndetectedClass>(undet);
  rec.features = {f[0], f[1], f[2], f[3], f[4]};
  pos = frame_end;  // honour the prefix even if a future writer added bytes
  out = std::move(rec);
  return true;
}

// -- JSONL ------------------------------------------------------------------

using obs::append_double;
using obs::append_i64;
using obs::append_u64;

void encode_jsonl(const InjectionRecord& r, std::string& out) {
  out += "{\"cat\":";
  append_u64(out, static_cast<std::uint64_t>(r.reason.category));
  out += ",\"idx\":";
  append_i64(out, r.reason.index);
  out += ",\"seed\":";
  append_u64(out, r.activation_seed);
  out += ",\"vcpu\":";
  append_i64(out, r.vcpu);
  out += ",\"step\":";
  append_u64(out, r.injection.at_step);
  out += ",\"reg\":";
  append_u64(out, static_cast<std::uint64_t>(r.injection.reg));
  out += ",\"bit\":";
  append_i64(out, r.injection.bit);
  out += ",\"inj\":";
  out += r.injected ? '1' : '0';
  out += ",\"act\":";
  out += r.activated ? '1' : '0';
  out += ",\"cons\":\"";
  out += consequence_name(r.consequence);
  out += "\",\"det\":";
  out += r.detected ? '1' : '0';
  out += ",\"tech\":";
  append_u64(out, static_cast<std::uint64_t>(r.technique));
  out += ",\"lat\":";
  append_u64(out, r.latency);
  out += ",\"trap\":";
  append_u64(out, static_cast<std::uint64_t>(r.trap));
  out += ",\"assert\":";
  append_u64(out, r.assert_id);
  out += ",\"div\":";
  out += r.trace_diverged ? '1' : '0';
  out += ",\"undet\":\"";
  out += undetected_class_name(r.undetected);
  out += "\",\"f\":[";
  bool first = true;
  for (std::int64_t f : r.features.as_array()) {
    if (!first) out += ',';
    first = false;
    append_i64(out, f);
  }
  out += "],\"w\":";
  append_double(out, r.weight);
  out += ",\"mw\":";
  append_double(out, r.masked_weight);
  out += "}\n";
}

bool decode_jsonl(std::string_view data, std::size_t& pos,
                  InjectionRecord& out) {
  const std::size_t eol = data.find('\n', pos);
  if (eol == std::string_view::npos) return false;  // truncated line
  const std::optional<obs::JsonValue> v =
      obs::parse_json(data.substr(pos, eol - pos));
  if (!v.has_value() || !v->is_object()) return false;
  InjectionRecord rec;
  const std::uint64_t cat = v->get_uint("cat");
  const std::uint64_t reg = v->get_uint("reg");
  const std::uint64_t tech = v->get_uint("tech");
  const std::uint64_t trap = v->get_uint("trap");
  const std::optional<Consequence> cons =
      consequence_from_name(v->get_string("cons"));
  const std::optional<UndetectedClass> undet =
      undetected_class_from_name(v->get_string("undet"));
  if (cat > static_cast<std::uint64_t>(hv::ExitCategory::Tasklet) ||
      reg >= static_cast<std::uint64_t>(sim::kNumArchRegs) ||
      tech >= static_cast<std::uint64_t>(kNumTechniques) ||
      trap > static_cast<std::uint64_t>(sim::TrapKind::StackCheck) ||
      !cons.has_value() || !undet.has_value()) {
    return false;
  }
  rec.reason = {static_cast<hv::ExitCategory>(cat),
                static_cast<int>(v->get_int("idx"))};
  rec.activation_seed = v->get_uint("seed");
  rec.vcpu = static_cast<int>(v->get_int("vcpu"));
  rec.injection.at_step = v->get_uint("step");
  rec.injection.reg = static_cast<sim::Reg>(reg);
  rec.injection.bit = static_cast<int>(v->get_int("bit"));
  rec.injected = v->get_int("inj") != 0;
  rec.activated = v->get_int("act") != 0;
  rec.consequence = *cons;
  rec.detected = v->get_int("det") != 0;
  rec.technique = static_cast<Technique>(tech);
  rec.latency = v->get_uint("lat");
  rec.trap = static_cast<sim::TrapKind>(trap);
  rec.assert_id = static_cast<std::uint32_t>(v->get_uint("assert"));
  rec.trace_diverged = v->get_int("div") != 0;
  rec.undetected = *undet;
  const obs::JsonValue* f = v->get("f");
  if (f == nullptr ||
      f->as_array().size() != static_cast<std::size_t>(kNumFeatures)) {
    return false;
  }
  const auto& fa = f->as_array();
  rec.features = {fa[0].as_int(), fa[1].as_int(), fa[2].as_int(),
                  fa[3].as_int(), fa[4].as_int()};
  rec.weight = v->get_double("w", 1.0);
  rec.masked_weight = v->get_double("mw", 0.0);
  pos = eol + 1;
  out = std::move(rec);
  return true;
}

}  // namespace

void encode_record(const InjectionRecord& r, obs::RecordFormat format,
                   std::string& out) {
  if (format == obs::RecordFormat::kJsonl) {
    encode_jsonl(r, out);
  } else {
    encode_binary(r, out);
  }
}

bool decode_record(std::string_view data, obs::RecordFormat format,
                   std::size_t& pos, InjectionRecord& out) {
  return format == obs::RecordFormat::kJsonl ? decode_jsonl(data, pos, out)
                                             : decode_binary(data, pos, out);
}

bool decode_records(std::string_view data, obs::RecordFormat format,
                    std::vector<InjectionRecord>& out) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    InjectionRecord rec;
    if (!decode_record(data, format, pos, rec)) return false;
    out.push_back(std::move(rec));
  }
  return true;
}

}  // namespace xentry::fault
