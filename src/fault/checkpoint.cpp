#include "fault/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/atomic_file.hpp"
#include "obs/json.hpp"

namespace xentry::fault {

namespace {

// Member tables, each name spelled as the line writers below write it and
// as the readers further down read it.
enum HeaderKey : std::size_t {
  kHType, kHSeed, kHInjections, kHShards, kHBias, kHWarmup, kHGap,
  kHImportance, kHEvery, kHFmt};
constexpr std::string_view kHeaderMembers[] = {
    "\"type\":", "\"seed\":", "\"injections\":", "\"shards\":",
    "\"bias\":", "\"warmup\":", "\"gap\":", "\"importance\":",
    "\"every\":", "\"fmt\":"};
constexpr std::string_view kHeaderType = "header";
constexpr std::uint64_t kHeaderRequired = (1u << (kHFmt + 1)) - 1;

enum CheckpointKey : std::size_t {
  kCType, kCShard, kCIter, kCRecords, kCDigest, kCEff, kCSinkOff,
  kCForensics, kCActs, kCGenRng, kCMainRng, kCAuxRng, kCTsc, kCMem,
  kCMetrics};
constexpr std::string_view kCheckpointMembers[] = {
    "\"type\":", "\"shard\":", "\"iter\":", "\"records\":",
    "\"digest\":", "\"eff\":", "\"sink_off\":", "\"forensics\":",
    "\"acts\":", "\"gen_rng\":", "\"main_rng\":", "\"aux_rng\":",
    "\"tsc\":", "\"mem\":", "\"metrics\":"};
constexpr std::string_view kCheckpointType = "ckpt";
// Every member but `metrics`, which a shard with metrics off leaves out.
constexpr std::uint64_t kCheckpointRequired = (1u << (kCMem + 1)) - 1;

/// Region words as a compact token string: hex values, zero runs as
/// "z<count>".  Machine images are mostly zero, so this keeps journal
/// lines small without a real compressor.
void write_words(obs::BufferWriter& w,
                 const std::vector<std::uint64_t>& words) {
  for (std::size_t i = 0; i < words.size();) {
    if (i > 0) w.put(',');
    if (words[i] != 0) {
      w.hex(words[i++]);
      continue;
    }
    std::size_t run = 1;
    while (i + run < words.size() && words[i + run] == 0) ++run;
    w.put('z');
    w.integer(run);
    i += run;
  }
}

/// A token and its comma take at most 17 bytes per word they stand for:
/// 16 hex digits, or `z` and a run length of at most 20 digits for a run
/// of at least two words (`z1` for one).
constexpr std::size_t kMaxWordChars = obs::kMaxHexChars + 1;

// Every count prints as a u64, so each is at most kU64 wide.
constexpr std::size_t kU64 = obs::kMaxDecimalChars<std::uint64_t>;
constexpr std::size_t kReal = obs::kMaxNumberChars;
constexpr std::size_t kMaxHeaderLine = obs::max_line_chars(
    kHeaderMembers, {kHeaderType.size() + 2, kU64, kU64, kU64, kReal, kU64,
                     kU64, 1, kU64, kU64});

/// Writes the header line into `buf` (kMaxHeaderLine bytes).
std::string_view header_line(const CheckpointHeader& h, char* buf) {
  obs::BufferWriter w(buf);
  const auto member = [&w](HeaderKey k) { w.member(kHeaderMembers, k); };
  w.put('{');
  member(kHType);
  w.quoted(kHeaderType);
  member(kHSeed);
  w.integer(h.seed);
  member(kHInjections);
  w.integer(static_cast<std::uint64_t>(h.injections));
  member(kHShards);
  w.integer(static_cast<std::uint64_t>(h.shards));
  member(kHBias);
  w.number(h.activation_bias);
  member(kHWarmup);
  w.integer(static_cast<std::uint64_t>(h.warmup_activations));
  member(kHGap);
  w.integer(static_cast<std::uint64_t>(h.stream_gap));
  member(kHImportance);
  w.flag(h.importance);
  member(kHEvery);
  w.integer(static_cast<std::uint64_t>(h.checkpoint_every));
  member(kHFmt);
  w.integer(static_cast<std::uint64_t>(h.records_format));
  w.text("}\n");
  return w.view();
}

/// The longest line checkpoint_line can write for `c`: its RNG states,
/// memory image and registry are unbounded, so the bound is taken from
/// them.
std::size_t max_checkpoint_line(const ShardCheckpoint& c) {
  std::size_t mem = 2;  // []
  for (const std::vector<std::uint64_t>& region : c.memory) {
    mem += 3 + kMaxWordChars * region.size();  // "words",
  }
  return obs::max_line_chars(
      kCheckpointMembers,
      {kCheckpointType.size() + 2, kU64, kU64, kU64, kU64, kReal, kU64, kU64,
       kU64, c.gen_rng.size() + 2, c.main_rng.size() + 2,
       c.aux_rng.size() + 2, kU64, mem, c.metrics.line_chars()});
}

/// Writes one checkpoint line into `buf` (max_checkpoint_line(c) bytes).
std::string_view checkpoint_line(const ShardCheckpoint& c, char* buf) {
  obs::BufferWriter w(buf);
  const auto member = [&w](CheckpointKey k) {
    w.member(kCheckpointMembers, k);
  };
  w.put('{');
  member(kCType);
  w.quoted(kCheckpointType);
  member(kCShard);
  w.integer(static_cast<std::uint64_t>(c.shard));
  member(kCIter);
  w.integer(c.iterations);
  member(kCRecords);
  w.integer(c.records_written);
  member(kCDigest);
  w.integer(c.digest);
  member(kCEff);
  w.number(c.effective);
  member(kCSinkOff);
  w.integer(c.sink_offset);
  member(kCForensics);
  w.integer(c.forensics_counter);
  member(kCActs);
  w.integer(c.activations_generated);
  // RNG states are digits and spaces; region words are hex/commas — no
  // JSON escaping needed for any of these payloads.
  member(kCGenRng);
  w.quoted(c.gen_rng);
  member(kCMainRng);
  w.quoted(c.main_rng);
  member(kCAuxRng);
  w.quoted(c.aux_rng);
  member(kCTsc);
  w.integer(c.tsc);
  member(kCMem);
  w.put('[');
  for (std::size_t i = 0; i < c.memory.size(); ++i) {
    if (i > 0) w.put(',');
    w.put('"');
    write_words(w, c.memory[i]);
    w.put('"');
  }
  w.put(']');
  if (!c.metrics.empty()) {
    member(kCMetrics);
    c.metrics.write_line(w);
  }
  w.text("}\n");
  return w.view();
}

/// Writes `line` and flushes it; false on a short write or failed flush.
bool write_line(std::FILE* file, std::string_view line) {
  return std::fwrite(line.data(), 1, line.size(), file) == line.size() &&
         std::fflush(file) == 0;
}

// Every region of the machine layout (hv/layout.hpp) is far smaller than
// 2^20 words, so a longer image is corrupt; the bound also keeps a corrupt
// zero-run length from allocating without limit.
constexpr std::uint64_t kMaxRegionWords = std::uint64_t{1} << 20;

/// Inverse of write_words.  Refuses an empty token, a token that is not
/// hex or `z` and a decimal run length, and an image longer than
/// kMaxRegionWords.
bool decode_words(std::string_view text, std::vector<std::uint64_t>& out) {
  out.clear();
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    const bool run = *p == 'z';
    std::uint64_t v = 0;
    const auto [next, ec] =
        std::from_chars(run ? p + 1 : p, end, v, run ? 10 : 16);
    const std::uint64_t words = run ? v : 1;
    if (ec != std::errc{} || words > kMaxRegionWords - out.size() ||
        (next != end && (*next != ',' || next + 1 == end))) {
      return false;
    }
    out.insert(out.end(), words, run ? 0 : v);
    p = next == end ? end : next + 1;
  }
  return true;
}

}  // namespace

std::unique_ptr<CheckpointJournal> CheckpointJournal::create(
    const std::string& path, const CheckpointHeader& header) {
  auto journal = std::unique_ptr<CheckpointJournal>(new CheckpointJournal());
  journal->file_ = std::fopen(path.c_str(), "wb");
  if (journal->file_ == nullptr) return nullptr;
  char buf[kMaxHeaderLine];
  if (!write_line(journal->file_, header_line(header, buf))) {
    journal->failed_ = true;
  }
  return journal;
}

std::unique_ptr<CheckpointJournal> CheckpointJournal::append_to(
    const std::string& path) {
  auto journal = std::unique_ptr<CheckpointJournal>(new CheckpointJournal());
  journal->file_ = std::fopen(path.c_str(), "ab");
  if (journal->file_ == nullptr) return nullptr;
  return journal;
}

CheckpointJournal::~CheckpointJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

void CheckpointJournal::append(const ShardCheckpoint& ckpt) {
  const auto buf =
      std::make_unique_for_overwrite<char[]>(max_checkpoint_line(ckpt));
  const std::string_view line = checkpoint_line(ckpt, buf.get());
  const std::scoped_lock lock(mu_);
  if (file_ == nullptr || failed_) return;
  if (!write_line(file_, line)) failed_ = true;
}

namespace {

bool read_type(obs::LineScanner& in, std::string_view want) {
  std::string_view type;
  return in.string(type) && type == want;
}

/// mt19937_64's state as libstdc++ holds it and its stream operator
/// prints it: the 312 words, then the index of the next word to temper.
/// The engine is bit_cast to and from it; RngStateTest's oracle against
/// the stream operators pins the layout.
struct RngState {
  std::uint64_t words[std::mt19937_64::state_size];
  std::size_t index;
};
static_assert(sizeof(RngState) == sizeof(std::mt19937_64));

/// The widest state text: 313 twenty-digit words and a space after each.
constexpr std::size_t kMaxRngStateChars =
    (std::mt19937_64::state_size + 1) *
    (obs::kMaxDecimalChars<std::uint64_t> + 1);

/// Parses the text the stream operator prints, and no other: exactly 313
/// decimal words separated by single spaces, each within 64 bits, with no
/// sign, no leading zero (but `0` itself) and no other byte.  These are
/// exactly the texts that `operator>>` reads back to themselves.
bool parse_rng_state(std::string_view text, RngState& out) {
  const char* p = text.data();
  const char* const end = p + text.size();
  for (std::size_t i = 0; i <= std::mt19937_64::state_size; ++i) {
    if (i > 0) {
      if (p == end || *p != ' ') return false;
      ++p;
    }
    std::uint64_t word = 0;
    const auto [next, ec] = std::from_chars(p, end, word);
    if (ec != std::errc{} || (*p == '0' && next - p > 1)) return false;
    (i < std::mt19937_64::state_size ? out.words[i] : out.index) = word;
    p = next;
  }
  return p == end;
}

bool read_text(obs::LineScanner& in, std::string& out) {
  std::string_view s;
  if (!in.string(s)) return false;
  out.assign(s);
  return true;
}

/// An mt19937_64 state that rng_state_from_string accepts; `optional`
/// also lets the empty string through (no sampler aux stream).
bool read_rng(obs::LineScanner& in, std::string& out, std::string_view key,
              bool optional = false) {
  if (!read_text(in, out)) return false;
  RngState parsed;
  return (optional && out.empty()) || parse_rng_state(out, parsed) ||
         in.fail("corrupt RNG state in", key);
}

/// An `int` the writer prints as unsigned, so never negative.
bool read_count(obs::LineScanner& in, int& out) {
  return in.integer(out) && out >= 0;
}

bool read_header_member(obs::LineScanner& in, std::size_t key,
                        CheckpointHeader& h) {
  switch (key) {
    case kHType: return read_type(in, kHeaderType);
    case kHSeed: return in.integer(h.seed);
    case kHInjections: return read_count(in, h.injections);
    case kHShards: return read_count(in, h.shards);
    case kHBias: return in.number(h.activation_bias);
    case kHWarmup: return read_count(in, h.warmup_activations);
    case kHGap: return read_count(in, h.stream_gap);
    case kHImportance: return in.flag(h.importance);
    case kHEvery: return read_count(in, h.checkpoint_every);
    case kHFmt: return in.integer(h.records_format);
    default: return false;
  }
}

bool read_checkpoint_member(obs::LineScanner& in, std::size_t key,
                            ShardCheckpoint& c) {
  switch (key) {
    case kCType: return read_type(in, kCheckpointType);
    case kCShard: return read_count(in, c.shard);
    case kCIter: return in.integer(c.iterations);
    case kCRecords: return in.integer(c.records_written);
    case kCDigest: return in.integer(c.digest);
    case kCEff: return in.number(c.effective);
    case kCSinkOff: return in.integer(c.sink_offset);
    case kCForensics: return in.integer(c.forensics_counter);
    case kCActs: return in.integer(c.activations_generated);
    case kCGenRng: return read_rng(in, c.gen_rng, "gen_rng");
    case kCMainRng: return read_rng(in, c.main_rng, "main_rng");
    case kCAuxRng: return read_rng(in, c.aux_rng, "aux_rng", true);
    case kCTsc: return in.integer(c.tsc);
    case kCMem: {
      if (!in.punct('[')) return false;
      if (in.punct(']')) return true;
      do {
        std::string_view words;
        if (!in.string(words) ||
            !decode_words(words, c.memory.emplace_back())) {
          return in.fail("corrupt memory image in", "mem");
        }
      } while (in.punct(','));
      return in.punct(']');
    }
    case kCMetrics: return obs::MetricsRegistry::read_line(in, c.metrics);
    default: return false;
  }
}

}  // namespace

JournalContents read_journal(const std::string& path) {
  JournalContents out;
  const std::string text = obs::read_file(path);  // missing: no header
  bool have_header = false;
  const auto read_line = [&](obs::LineScanner& in) {
    if (!have_header) {
      CheckpointHeader& h = out.header;
      if (!in.members(kHeaderMembers, kHeaderRequired,
                      [&](std::size_t k) {
                        return read_header_member(in, k, h);
                      }) ||
          !in.end()) {
        return false;
      }
      // A campaign clamps its shards to its injections.
      if (h.shards <= 0 || (h.injections > 0 && h.shards > h.injections)) {
        return in.fail("shard count out of range");
      }
      out.shards.resize(static_cast<std::size_t>(h.shards));
      have_header = true;
      return true;
    }
    ShardCheckpoint c;
    if (!in.members(kCheckpointMembers, kCheckpointRequired,
                    [&](std::size_t k) {
                      return read_checkpoint_member(in, k, c);
                    }) ||
        !in.end()) {
      return false;
    }
    if (c.shard >= out.header.shards) {
      return in.fail("shard index out of range");
    }
    out.shards[static_cast<std::size_t>(c.shard)] = std::move(c);
    return true;
  };
  std::size_t intact = 0;
  if (std::optional<std::string> err =
          obs::read_lines(text, path, read_line, &intact)) {
    out.error = std::move(*err);
  }
  out.valid = have_header && out.error.empty();
  out.intact_bytes = intact;
  return out;
}

void capture_machine(const hv::Machine& machine, ShardCheckpoint& out) {
  const hv::Machine::Snapshot snap = machine.snapshot();
  out.tsc = snap.tsc;
  out.memory.clear();
  out.memory.reserve(snap.memory.regions.size());
  for (const sim::Memory::Snapshot::RegionImage& r : snap.memory.regions) {
    out.memory.push_back(r.data);
  }
}

void restore_machine(hv::Machine& machine, const ShardCheckpoint& ckpt) {
  const std::vector<sim::Memory::Region>& regions =
      machine.memory().regions();
  if (ckpt.memory.size() != regions.size()) {
    throw std::runtime_error(
        "checkpoint: memory image has " + std::to_string(ckpt.memory.size()) +
        " regions but the machine maps " + std::to_string(regions.size()) +
        " — the journal was written under a different machine configuration");
  }
  hv::Machine::Snapshot snap;
  snap.tsc = ckpt.tsc;
  snap.memory.source_id = 0;  // foreign image: forces a full copy
  snap.memory.regions.resize(ckpt.memory.size());
  for (std::size_t i = 0; i < ckpt.memory.size(); ++i) {
    if (ckpt.memory[i].size() != regions[i].data.size()) {
      throw std::runtime_error(
          "checkpoint: region " + std::to_string(i) + " has " +
          std::to_string(ckpt.memory[i].size()) + " words but the machine's " +
          regions[i].name + " region holds " +
          std::to_string(regions[i].data.size()) +
          " — the journal was written under a different machine "
          "configuration");
    }
    snap.memory.regions[i].data = ckpt.memory[i];
  }
  machine.restore(snap);
}

std::string rng_state_string(const std::mt19937_64& rng) {
  const auto state = std::bit_cast<RngState>(rng);
  char buf[kMaxRngStateChars];
  obs::BufferWriter w(buf);
  for (const std::uint64_t word : state.words) {
    w.integer(word);
    w.put(' ');
  }
  w.integer(state.index);
  return std::string(w.view());
}

bool rng_state_from_string(std::mt19937_64& rng, const std::string& state) {
  RngState parsed;
  if (!parse_rng_state(state, parsed)) return false;
  rng = std::bit_cast<std::mt19937_64>(parsed);
  return true;
}

}  // namespace xentry::fault
