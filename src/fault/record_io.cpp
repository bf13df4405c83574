#include "fault/record_io.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <limits>
#include <system_error>
#include <type_traits>

#include "hv/layout.hpp"
#include "obs/atomic_file.hpp"
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

/// Number of reasons in a category; 0 for an unknown category.
int reasons_in(hv::ExitCategory category) {
  switch (category) {
    case hv::ExitCategory::Hypercall: return hv::kNumHypercalls;
    case hv::ExitCategory::Exception: return hv::kNumGuestExceptions;
    case hv::ExitCategory::Apic: return hv::kNumApicInterrupts;
    case hv::ExitCategory::Irq: return hv::kNumIrqLines;
    case hv::ExitCategory::Softirq:
    case hv::ExitCategory::Tasklet: return 1;
  }
  return 0;
}

bool is_unit_weight(double w) { return w >= 0.0 && w <= 1.0; }  // not NaN

// -- binary frame -----------------------------------------------------------

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
constexpr std::uint8_t kKnownFlags =
    kFlagInjected | kFlagActivated | kFlagDetected | kFlagDiverged;

// The payload encode_binary writes; a shorter frame does not decode.
constexpr std::uint32_t kBinaryPayloadBytes =
    1 + 4 + 8 + 4 + 8 + 1 + 4 + 1 + 1 + 1 + 8 + 1 + 4 + 1 +
    8 * kNumFeatures + 8 + 8;

constexpr std::size_t kBinaryFrameBytes = 4 + kBinaryPayloadBytes;

void encode_binary(const InjectionRecord& r, std::string& out) {
  char buf[kBinaryFrameBytes];
  obs::BufferWriter w(buf);
  w.little_endian(kBinaryPayloadBytes);
  w.little_endian(static_cast<std::uint8_t>(r.reason.category));
  w.little_endian(static_cast<std::uint32_t>(r.reason.index));
  w.little_endian(r.activation_seed);
  w.little_endian(static_cast<std::uint32_t>(r.vcpu));
  w.little_endian(r.injection.at_step);
  w.little_endian(static_cast<std::uint8_t>(r.injection.reg));
  w.little_endian(static_cast<std::uint32_t>(r.injection.bit));
  std::uint8_t flags = 0;
  if (r.injected) flags |= kFlagInjected;
  if (r.activated) flags |= kFlagActivated;
  if (r.detected) flags |= kFlagDetected;
  if (r.trace_diverged) flags |= kFlagDiverged;
  w.little_endian(flags);
  w.little_endian(static_cast<std::uint8_t>(r.consequence));
  w.little_endian(static_cast<std::uint8_t>(r.technique));
  w.little_endian(r.latency);
  w.little_endian(static_cast<std::uint8_t>(r.trap));
  w.little_endian(r.assert_id);
  w.little_endian(static_cast<std::uint8_t>(r.undetected));
  for (std::int64_t f : r.features.as_array()) {
    w.little_endian(static_cast<std::uint64_t>(f));
  }
  w.little_endian(std::bit_cast<std::uint64_t>(r.weight));
  w.little_endian(std::bit_cast<std::uint64_t>(r.masked_weight));
  w.append_to(out);
}

bool decode_binary_into(std::string_view data, std::size_t& pos,
                        InjectionRecord& rec) {
  ByteReader r{data, pos};
  const std::uint32_t len = r.u32();
  if (!r.ok || len < kBinaryPayloadBytes || len > data.size() - r.pos) {
    return false;
  }
  const std::size_t frame_end = r.pos + len;
  const std::uint8_t cat = r.u8();
  const std::uint32_t idx = r.u32();
  rec.activation_seed = r.u64();
  rec.vcpu = static_cast<int>(r.u32());
  rec.injection.at_step = r.u64();
  rec.injection.reg = static_cast<sim::Reg>(r.u8());
  rec.injection.bit = static_cast<int>(r.u32());
  const std::uint8_t flags = r.u8();
  rec.consequence = static_cast<Consequence>(r.u8());
  rec.technique = static_cast<Technique>(r.u8());
  rec.latency = r.u64();
  rec.trap = static_cast<sim::TrapKind>(r.u8());
  rec.assert_id = r.u32();
  rec.undetected = static_cast<UndetectedClass>(r.u8());
  std::int64_t f[kNumFeatures];
  for (std::int64_t& v : f) v = static_cast<std::int64_t>(r.u64());
  rec.features = {f[0], f[1], f[2], f[3], f[4]};
  rec.weight = std::bit_cast<double>(r.u64());
  rec.masked_weight = std::bit_cast<double>(r.u64());
  if (!r.ok || (flags & ~kKnownFlags) != 0) return false;
  rec.reason = {static_cast<hv::ExitCategory>(cat), static_cast<int>(idx)};
  rec.injected = (flags & kFlagInjected) != 0;
  rec.activated = (flags & kFlagActivated) != 0;
  rec.detected = (flags & kFlagDetected) != 0;
  rec.trace_diverged = (flags & kFlagDiverged) != 0;
  if (!record_in_range(rec)) return false;
  pos = frame_end;  // honour the prefix even if a future writer added bytes
  return true;
}

// -- JSONL ------------------------------------------------------------------

// The writer's member order, each name as the writer spells it: quoted and
// followed by the colon (the table obs::LineScanner::members reads).
enum JsonlKey : int {
  kCat, kIdx, kSeed, kVcpu, kStep, kReg, kBit, kInj, kAct, kCons,
  kDet, kTech, kLat, kTrap, kAssert, kDiv, kUndet, kF, kW, kMw,
  kNumJsonlKeys,
};
constexpr std::string_view kJsonlMembers[kNumJsonlKeys] = {
    "\"cat\":", "\"idx\":", "\"seed\":", "\"vcpu\":", "\"step\":",
    "\"reg\":", "\"bit\":", "\"inj\":", "\"act\":", "\"cons\":",
    "\"det\":", "\"tech\":", "\"lat\":", "\"trap\":", "\"assert\":",
    "\"div\":", "\"undet\":", "\"f\":", "\"w\":", "\"mw\":",
};
// Every member but the trailing optional weights.
constexpr std::uint64_t kRequiredKeys = (std::uint64_t{1} << kW) - 1;

// No line shorter than this decodes: every required member at its
// shortest, one byte of value (the feature array needs `[0,0,0,0,0]`),
// the commas between them, the braces and the newline.
constexpr std::size_t kMinJsonlLine = [] {
  std::size_t n = 2 + (kW - 1) + 1 + (2 * kNumFeatures);
  for (int k = 0; k < kW; ++k) n += kJsonlMembers[k].size() + 1;
  return n;
}();

/// The longest quoted name `name_of` gives any value of `E`.
template <typename E>
constexpr std::size_t widest_name(std::string_view (*name_of)(E)) {
  using U = std::underlying_type_t<E>;
  std::size_t n = 0;
  for (unsigned v = 0; v <= std::numeric_limits<U>::max(); ++v) {
    n = std::max(n, name_of(static_cast<E>(v)).size());
  }
  return n + 2;
}

/// The widest decimal a field of type `T` prints as (an enum as its
/// underlying integer).
template <typename T>
constexpr std::size_t widest_integer() {
  if constexpr (std::is_enum_v<T>) {
    return obs::kMaxDecimalChars<std::underlying_type_t<T>>;
  } else {
    return obs::kMaxDecimalChars<T>;
  }
}

// Each member's widest value, as encode_jsonl writes it.
constexpr std::size_t kJsonlWidest[kNumJsonlKeys] = {
    widest_integer<decltype(InjectionRecord::reason.category)>(),
    widest_integer<decltype(InjectionRecord::reason.index)>(),
    widest_integer<decltype(InjectionRecord::activation_seed)>(),
    widest_integer<decltype(InjectionRecord::vcpu)>(),
    widest_integer<decltype(InjectionRecord::injection.at_step)>(),
    widest_integer<decltype(InjectionRecord::injection.reg)>(),
    widest_integer<decltype(InjectionRecord::injection.bit)>(),
    1,  // inj
    1,  // act
    widest_name(consequence_name),
    1,  // det
    widest_integer<decltype(InjectionRecord::technique)>(),
    widest_integer<decltype(InjectionRecord::latency)>(),
    widest_integer<decltype(InjectionRecord::trap)>(),
    widest_integer<decltype(InjectionRecord::assert_id)>(),
    1,  // div
    widest_name(undetected_class_name),
    // [f,f,f,f,f]
    1 + kNumFeatures * (obs::kMaxDecimalChars<std::int64_t> + 1),
    obs::kMaxNumberChars,
    obs::kMaxNumberChars,
};
constexpr std::size_t kMaxJsonlLine =
    obs::max_line_chars(kJsonlMembers, kJsonlWidest);
static_assert(kMaxJsonlLine <= 512, "a JSONL frame is a small stack buffer");

void encode_jsonl(const InjectionRecord& r, std::string& out) {
  char buf[kMaxJsonlLine];
  obs::BufferWriter w(buf);
  const auto member = [&w](JsonlKey k) { w.member(kJsonlMembers, k); };
  w.put('{');
  member(kCat);
  w.enumerator(r.reason.category);
  member(kIdx);
  w.integer(r.reason.index);
  member(kSeed);
  w.integer(r.activation_seed);
  member(kVcpu);
  w.integer(r.vcpu);
  member(kStep);
  w.integer(r.injection.at_step);
  member(kReg);
  w.enumerator(r.injection.reg);
  member(kBit);
  w.integer(r.injection.bit);
  member(kInj);
  w.flag(r.injected);
  member(kAct);
  w.flag(r.activated);
  member(kCons);
  w.quoted(consequence_name(r.consequence));
  member(kDet);
  w.flag(r.detected);
  member(kTech);
  w.enumerator(r.technique);
  member(kLat);
  w.integer(r.latency);
  member(kTrap);
  w.enumerator(r.trap);
  member(kAssert);
  w.integer(r.assert_id);
  member(kDiv);
  w.flag(r.trace_diverged);
  member(kUndet);
  w.quoted(undetected_class_name(r.undetected));
  member(kF);
  w.put('[');
  const auto features = r.features.as_array();
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (i > 0) w.put(',');
    w.integer(features[i]);
  }
  w.put(']');
  member(kW);
  w.number(r.weight);
  member(kMw);
  w.number(r.masked_weight);
  w.text("}\n");
  w.append_to(out);
}

bool read_member(obs::LineScanner& in, std::size_t key, InjectionRecord& r) {
  switch (key) {
    case kCat: return in.enumerator(r.reason.category);
    case kIdx: return in.integer(r.reason.index);
    case kSeed: return in.integer(r.activation_seed);
    case kVcpu: return in.integer(r.vcpu);
    case kStep: return in.integer(r.injection.at_step);
    case kReg: return in.enumerator(r.injection.reg);
    case kBit: return in.integer(r.injection.bit);
    case kInj: return in.flag(r.injected);
    case kAct: return in.flag(r.activated);
    case kDet: return in.flag(r.detected);
    case kTech: return in.enumerator(r.technique);
    case kLat: return in.integer(r.latency);
    case kTrap: return in.enumerator(r.trap);
    case kAssert: return in.integer(r.assert_id);
    case kDiv: return in.flag(r.trace_diverged);
    case kW: return in.number(r.weight);
    case kMw: return in.number(r.masked_weight);
    case kCons: return in.named(r.consequence, consequence_from_name);
    case kUndet: return in.named(r.undetected, undetected_class_from_name);
    case kF: {
      std::int64_t f[kNumFeatures] = {};
      if (!in.punct('[')) return false;
      for (int i = 0; i < kNumFeatures; ++i) {
        if ((i > 0 && !in.punct(',')) || !in.integer(f[i])) return false;
      }
      if (!in.punct(']')) return false;
      r.features = {f[0], f[1], f[2], f[3], f[4]};
      return true;
    }
    default: return false;
  }
}

bool decode_jsonl_into(std::string_view data, std::size_t& pos,
                       InjectionRecord& rec) {
  const std::size_t eol = data.find('\n', pos);
  if (eol == std::string_view::npos) return false;  // truncated line
  obs::LineScanner in(data.substr(pos, eol - pos));
  if (!in.members(kJsonlMembers, kRequiredKeys,
                  [&](std::size_t key) { return read_member(in, key, rec); }) ||
      !in.end() || !record_in_range(rec)) {
    return false;
  }
  pos = eol + 1;
  return true;
}

bool decode_into(std::string_view data, obs::RecordFormat format,
                 std::size_t& pos, InjectionRecord& rec) {
  return format == obs::RecordFormat::kJsonl
             ? decode_jsonl_into(data, pos, rec)
             : decode_binary_into(data, pos, rec);
}

/// The number of frames decode_records will try: every frame up to and
/// including the first that is too short, too long or truncated to decode.
/// Each frame it counts before that one holds at least 4 bytes.
std::size_t count_frames(std::string_view data, obs::RecordFormat format) {
  std::size_t n = 0;
  if (format == obs::RecordFormat::kJsonl) {
    std::size_t pos = 0;
    while (pos < data.size()) {
      ++n;
      const std::size_t eol = data.find('\n', pos);  // memchr
      if (eol == std::string_view::npos || eol + 1 - pos < kMinJsonlLine) {
        break;
      }
      pos = eol + 1;
    }
    return n;
  }
  ByteReader r{data};
  while (r.pos < data.size()) {
    ++n;
    const std::uint32_t len = r.u32();
    if (!r.ok || len < kBinaryPayloadBytes || len > data.size() - r.pos) break;
    r.pos += len;
  }
  return n;
}

}  // namespace

bool record_in_range(const InjectionRecord& r) {
  return r.reason.index >= 0 &&
         r.reason.index < reasons_in(r.reason.category) &&
         r.vcpu >= 0 && r.vcpu < hv::layout::kMaxVcpus &&
         static_cast<int>(r.injection.reg) < sim::kNumArchRegs &&
         r.injection.bit >= 0 && r.injection.bit < 64 &&
         static_cast<std::size_t>(r.consequence) < kNumConsequences &&
         static_cast<int>(r.technique) < kNumTechniques &&
         r.trap <= sim::TrapKind::StackCheck &&
         r.undetected <= UndetectedClass::OtherValues &&
         is_unit_weight(r.weight) && is_unit_weight(r.masked_weight);
}

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
  InjectionRecord rec;
  if (!decode_into(data, format, pos, rec)) return false;
  out = std::move(rec);
  return true;
}

bool decode_records(std::string_view data, obs::RecordFormat format,
                    std::vector<InjectionRecord>& out) {
  const std::size_t need = out.size() + count_frames(data, format);
  if (need > out.capacity()) {
    out.reserve(out.empty() ? need : std::max(need, 2 * out.capacity()));
  }
  std::size_t pos = 0;
  while (pos < data.size()) {
    if (!decode_into(data, format, pos, out.emplace_back())) {
      out.pop_back();
      return false;
    }
  }
  return true;
}

std::optional<std::string> decode_shard_file(
    std::string_view data, std::string_view path, obs::RecordFormat format,
    std::vector<InjectionRecord>& out) {
  const std::size_t before = out.size();
  if (decode_records(data, format, out)) return std::nullopt;
  return std::string(path) + ": record " +
         std::to_string(out.size() - before + 1) + " does not decode";
}

std::optional<std::string> read_shard_stream(std::string_view base,
                                             ShardStream& out) {
  const auto exists = [base](obs::RecordFormat f, std::size_t shard) {
    std::error_code ec;
    return std::filesystem::exists(
        obs::ShardedFileSink::shard_path(base, f, shard), ec);
  };
  const bool jsonl = exists(obs::RecordFormat::kJsonl, 0);
  if (!jsonl && !exists(obs::RecordFormat::kBinary, 0)) {
    return "no shard files found for '" + std::string(base) + "'";
  }
  const obs::RecordFormat format =
      jsonl ? obs::RecordFormat::kJsonl : obs::RecordFormat::kBinary;
  const obs::RecordFormat other =
      jsonl ? obs::RecordFormat::kBinary : obs::RecordFormat::kJsonl;
  for (std::size_t shard = 0; !exists(other, shard); ++shard) {
    if (!exists(format, shard)) return std::nullopt;
    const std::string path =
        obs::ShardedFileSink::shard_path(base, format, shard);
    if (auto err = decode_shard_file(obs::read_file(path), path, format,
                                     out.records)) {
      return err;
    }
    out.shard_ends.push_back(out.records.size());
  }
  return "both .jsonl and .bin shard files found for '" + std::string(base) +
         "'";
}

}  // namespace xentry::fault
