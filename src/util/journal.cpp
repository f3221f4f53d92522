#include "util/journal.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/fnv1a.hpp"

namespace billcap::util {

namespace {

/// FNV-1a over the journal payload: plenty to catch truncation and bit rot.
std::uint64_t checksum(std::string_view data) noexcept {
  Fnv1a fnv;
  fnv.mix_bytes(data);
  return fnv.hash;
}

// The commit log's two record kinds. Both are journal texts of their own:
// the header names the snapshot the log extends, each frame carries its
// 1-based sequence number ahead of the committed keys.
constexpr std::string_view kLogMagic = "billcap-log";
constexpr const char* kLogBaseKey = "base";
constexpr std::string_view kFrameHeaderLine = "billcap-log-frame v1\n";
constexpr std::string_view kFrameSeqLine = "seq=";
constexpr std::string_view kFrameSeqInnerLine = "\nseq=";
constexpr std::string_view kChecksumPrefix = "checksum ";

/// Reads the whole file into `out`; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("Journal: cannot read " + path);
  out.assign(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (!in) throw std::runtime_error("Journal: cannot read " + path);
  return true;
}

bool is_hex(std::string_view text) noexcept {
  return std::all_of(text.begin(), text.end(), [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  });
}

/// The 16 hex digits of the checksum line ending a journal text; empty
/// when `text` does not end in one.
std::string_view stated_checksum(std::string_view text) noexcept {
  constexpr std::size_t kHex = journal_text::kDoubleBitsChars;
  constexpr std::size_t kLine = kChecksumPrefix.size() + kHex;
  if (!text.empty() && text.back() == '\n') text.remove_suffix(1);
  if (text.size() < kLine + 1 || text[text.size() - kLine - 1] != '\n')
    return {};
  const std::string_view line = text.substr(text.size() - kLine);
  const std::string_view hex = line.substr(kChecksumPrefix.size());
  return line.substr(0, kChecksumPrefix.size()) == kChecksumPrefix &&
                 is_hex(hex)
             ? hex
             : std::string_view{};
}

/// End offset of the first complete "checksum <16 hex>\n" line starting
/// at or after `pos` in a commit log: where the record that begins at
/// `pos` ends. npos when the log ends before one (a torn record).
std::size_t record_end(std::string_view log, std::size_t pos) noexcept {
  constexpr std::string_view kMarker = "\nchecksum ";
  constexpr std::size_t kHex = journal_text::kDoubleBitsChars;
  for (std::size_t at = log.find(kMarker, pos); at != std::string_view::npos;
       at = log.find(kMarker, at + 1)) {
    const std::size_t hex = at + kMarker.size();
    if (hex + kHex >= log.size()) return std::string_view::npos;
    if (log[hex + kHex] == '\n' && is_hex(log.substr(hex, kHex)))
      return hex + kHex + 1;
  }
  return std::string_view::npos;
}

#if defined(__unix__) || defined(__APPLE__)
/// Writes all of `data` to `fd`; false on an I/O error.
bool write_all(int fd, std::string_view data) noexcept {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Fsyncs the directory holding `path`, so a rename or a new file in it
/// survives power loss, not just process death.
void sync_directory(const std::string& path, DurabilityStats* stats) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) return;
  // Some filesystems refuse fsync on a directory handle (EINVAL); that is
  // a property of the mount, not an I/O error worth aborting for.
  // billcap-lint: allow(raw-write): directory half of a durable commit
  if (::fsync(dfd) == 0 && stats) ++stats->dir_fsyncs;
  ::close(dfd);
}
#endif

std::uint64_t parse_hex_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size())
    throw std::runtime_error("Journal: bad hex value '" + std::string(text) +
                             "'");
  return value;
}

}  // namespace

Journal::Journal(std::string magic, int version)
    : magic_(std::move(magic)), version_(version) {
  if (magic_.empty() || magic_.find_first_of(" \n") != std::string::npos)
    throw std::invalid_argument("Journal: bad magic word");
  if (version_ < 1) throw std::invalid_argument("Journal: version >= 1");
}

void Journal::set(const std::string& key, std::string value) {
  if (key.empty() || key.find_first_of("=\n") != std::string::npos)
    throw std::invalid_argument("Journal: bad key '" + key + "'");
  if (value.find('\n') != std::string::npos)
    throw std::invalid_argument("Journal: value for '" + key +
                                "' contains newline");
  if (!index_.emplace(key, entries_.size()).second)
    throw std::invalid_argument("Journal: duplicate key '" + key + "'");
  entries_.emplace_back(key, std::move(value));
}

void Journal::set_u64(const std::string& key, std::uint64_t value) {
  std::string text;
  journal_text::append_u64(text, value);
  set(key, std::move(text));
}

void Journal::set_size(const std::string& key, std::size_t value) {
  set_u64(key, static_cast<std::uint64_t>(value));
}

void Journal::set_double_bits(const std::string& key, double value) {
  std::string text;
  journal_text::append_double_bits(text, value);
  set(key, std::move(text));
}

void Journal::set_double_list(const std::string& key,
                              const std::vector<double>& values) {
  std::string joined;
  joined.reserve(values.size() * 17);
  for (double v : values) {
    if (!joined.empty()) joined.push_back(' ');
    journal_text::append_double_bits(joined, v);
  }
  set(key, std::move(joined));
}

void Journal::upsert(std::string_view key, std::string_view value) {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    set(std::string(key), std::string(value));
  } else {
    entries_[it->second].second.assign(value);
  }
}

void Journal::apply_frame(std::string_view frame, std::uint64_t seq) {
  // `frame` ends in a well-formed checksum line (record_end found it), so
  // the payload before that line ends in '\n'.
  constexpr std::size_t kChecksumLine =
      kChecksumPrefix.size() + journal_text::kDoubleBitsChars + 1;
  const std::size_t marker = frame.size() - kChecksumLine;
  const std::string_view payload = frame.substr(0, marker);
  if (parse_hex_u64(frame.substr(marker + kChecksumPrefix.size(),
                                 journal_text::kDoubleBitsChars)) !=
      checksum(payload))
    throw std::runtime_error("Journal: checksum mismatch (corrupted frame)");
  std::string seq_line(kFrameSeqLine);
  journal_text::append_u64(seq_line, seq);
  seq_line += '\n';
  if (payload.substr(0, kFrameHeaderLine.size()) != kFrameHeaderLine ||
      payload.substr(kFrameHeaderLine.size(), seq_line.size()) != seq_line)
    throw std::runtime_error("Journal: frame header or sequence mismatch");

  // Verify every line before applying any, so a frame applies whole.
  std::vector<std::pair<std::string_view, std::string_view>> lines;
  for (std::size_t pos = kFrameHeaderLine.size() + seq_line.size();
       pos < payload.size();) {
    const std::size_t eol = payload.find('\n', pos);
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t eq = line.find('=');
    if (eq == 0 || eq == std::string_view::npos)
      throw std::runtime_error("Journal: malformed frame line '" +
                               std::string(line) + "'");
    lines.emplace_back(line.substr(0, eq), line.substr(eq + 1));
  }
  for (const auto& [key, value] : lines) upsert(key, value);
}

bool Journal::has(const std::string& key) const noexcept {
  return index_.count(key) > 0;
}

const std::string& Journal::get(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end())
    throw std::runtime_error("Journal: missing key '" + key + "'");
  return entries_[it->second].second;
}

std::uint64_t Journal::get_u64(const std::string& key) const {
  const std::string& s = get(key);
  std::uint64_t value = 0;
  const auto res = std::from_chars(s.data(), s.data() + s.size(), value);
  if (res.ec != std::errc{} || res.ptr != s.data() + s.size())
    throw std::runtime_error("Journal: key '" + key + "' is not an integer: " +
                             s);
  return value;
}

std::size_t Journal::get_size(const std::string& key) const {
  return static_cast<std::size_t>(get_u64(key));
}

double Journal::get_double_bits(const std::string& key) const {
  return std::bit_cast<double>(parse_hex_u64(get(key)));
}

std::vector<double> Journal::get_double_list(const std::string& key) const {
  std::vector<double> out;
  journal_text::Tokens tokens(get(key));
  for (std::string_view t = tokens.next(); !t.empty(); t = tokens.next())
    out.push_back(std::bit_cast<double>(parse_hex_u64(t)));
  return out;
}

std::string Journal::serialize() const {
  std::string text;
  journal_text::append_header(text, magic_, version_);
  append_entries(text);
  journal_text::append_checksum(text);
  return text;
}

void Journal::append_entries(std::string& out) const {
  for (const auto& [k, v] : entries_) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
}

Journal Journal::parse(std::string_view text, std::string_view expected_magic,
                       int max_version) {
  // The checksum line is the last non-empty line; everything before it is
  // the covered payload.
  const std::size_t marker = text.rfind("checksum ");
  if (marker == std::string_view::npos)
    throw std::runtime_error("Journal: no checksum (truncated file?)");
  if (marker == 0 || text[marker - 1] != '\n')
    throw std::runtime_error("Journal: malformed checksum line");
  std::string_view checksum_line = text.substr(marker);
  if (!checksum_line.empty() && checksum_line.back() == '\n')
    checksum_line.remove_suffix(1);
  const std::string_view payload = text.substr(0, marker);
  const std::uint64_t stated =
      parse_hex_u64(checksum_line.substr(std::string_view("checksum ").size()));
  if (stated != checksum(payload))
    throw std::runtime_error("Journal: checksum mismatch (corrupted file)");

  // Header: "<magic> v<version>".
  const std::size_t eol = payload.find('\n');
  if (eol == std::string_view::npos)
    throw std::runtime_error("Journal: missing header");
  const std::string_view header = payload.substr(0, eol);
  const std::size_t space = header.rfind(" v");
  if (space == std::string_view::npos)
    throw std::runtime_error("Journal: malformed header");
  const std::string_view magic = header.substr(0, space);
  if (magic != expected_magic)
    throw std::runtime_error("Journal: magic '" + std::string(magic) +
                             "' != expected '" + std::string(expected_magic) +
                             "'");
  int version = 0;
  const std::string_view vtext = header.substr(space + 2);
  const auto vres =
      std::from_chars(vtext.data(), vtext.data() + vtext.size(), version);
  if (vres.ec != std::errc{} || vres.ptr != vtext.data() + vtext.size())
    throw std::runtime_error("Journal: malformed version");
  if (version < 1 || version > max_version)
    throw std::runtime_error("Journal: version " + std::to_string(version) +
                             " not supported (max " +
                             std::to_string(max_version) + ")");

  Journal journal(std::string(magic), version);
  std::size_t pos = eol + 1;
  while (pos < payload.size()) {
    std::size_t next = payload.find('\n', pos);
    if (next == std::string_view::npos) next = payload.size();
    const std::string_view line = payload.substr(pos, next - pos);
    pos = next + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos)
      throw std::runtime_error("Journal: malformed line '" +
                               std::string(line) + "'");
    journal.set(std::string(line.substr(0, eq)),
                std::string(line.substr(eq + 1)));
  }
  return journal;
}

void Journal::save_atomic(const std::string& path) const {
  journal_text::write_atomic(path, serialize());
}

namespace journal_text {

void append_header(std::string& out, std::string_view magic, int version) {
  out += magic;
  out += " v";
  append_u64(out, static_cast<std::uint64_t>(version));
  out += '\n';
}

void append_u64(std::string& out, std::uint64_t value) {
  char buf[kMaxU64Chars];
  out.append(buf, write_u64(buf, value));
}

void append_double_bits(std::string& out, double value) {
  char buf[kDoubleBitsChars];
  out.append(buf, write_double_bits(buf, value));
}

void append_checksum(std::string& out) {
  char hex[kDoubleBitsChars];
  write_hex_u64(hex, checksum(out));
  out += "checksum ";
  out.append(hex, sizeof(hex));
  out += '\n';
}

void write_atomic(const std::string& path, std::string_view text,
                  DurabilityStats* stats) {
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  // POSIX path: fsync the data before the rename and the directory after
  // it. Without the directory fsync the rename lives only in the page
  // cache — a power cut could resurrect the *old* journal (process-death
  // durability but not power-loss durability).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("Journal: cannot open " + tmp);
  if (!write_all(fd, text)) {
    ::close(fd);
    throw std::runtime_error("Journal: write failed: " + tmp);
  }
  // billcap-lint: allow(raw-write): data half of the temp+rename commit
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("Journal: fsync failed: " + tmp);
  }
  if (::close(fd) != 0)
    throw std::runtime_error("Journal: close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("Journal: rename " + tmp + " -> " + path +
                             " failed");
  if (stats) {
    ++stats->fsyncs;
    ++stats->renames;
    stats->bytes += text.size();
  }
  sync_directory(path, stats);
#else
  {
    // This IS the atomic path — the non-POSIX half of save_atomic writes
    // the temp file that the rename below commits.
    // billcap-lint: allow(raw-write): temp half of the temp+rename commit
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("Journal: cannot open " + tmp);
    out << text;
    out.flush();
    if (!out) throw std::runtime_error("Journal: write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("Journal: rename " + tmp + " -> " + path +
                             " failed");
  if (stats) {
    ++stats->renames;
    stats->bytes += text.size();
  }
#endif
}

}  // namespace journal_text

std::string Journal::generation_path(const std::string& path,
                                     std::size_t generation) {
  return generation == 0 ? path : path + "." + std::to_string(generation);
}

void Journal::rotate_generations(const std::string& path,
                                 std::size_t keep_generations) {
  for (std::size_t g = keep_generations; g-- > 1;) {
    // A failed rename (usually ENOENT: that generation does not exist yet)
    // leaves the older generation in place; the fallback scan on load
    // copes with gaps and duplicates.
    std::rename(generation_path(path, g - 1).c_str(),
                generation_path(path, g).c_str());
  }
}

Journal Journal::load(const std::string& path, std::string_view expected_magic,
                      int max_version, LogReplay* replay) {
  std::string text;
  if (!read_file(path, text))
    throw std::runtime_error("Journal: cannot open " + path);
  Journal journal = parse(text, expected_magic, max_version);
  LogReplay ignored;
  journal.replay_log(JournalCommitter::log_path(path),
                     stated_checksum(text),
                     replay ? replay : &ignored);
  return journal;
}

void Journal::replay_log(const std::string& log_path, std::string_view base,
                         LogReplay* replay) {
  std::string log;
  if (!read_file(log_path, log)) return;
  const std::string_view text = log;

  // The header. A log with no complete header was cut while a snapshot
  // started it, and one naming another checksum extends an older
  // snapshot: neither holds a commit of this file.
  std::size_t pos = record_end(text, 0);
  if (pos == std::string_view::npos) return;
  try {
    if (parse(text.substr(0, pos), kLogMagic, 1).get(kLogBaseKey) != base)
      return;
  } catch (const std::exception& e) {
    replay->stop = log_path + ": unreadable header, nothing replayed (" +
                   e.what() + ")";
    return;
  }

  // The frames, in order, up to the first that is torn or fails to verify.
  std::uint64_t seq = 1;
  const auto stop = [&](const std::string& why) {
    replay->stop = log_path + ": replay stopped after frame " +
                   std::to_string(seq - 1) + ", " + why + " (" +
                   std::to_string(text.size() - pos) + " bytes not replayed)";
  };
  for (; pos < text.size(); ++seq) {
    const std::size_t end = record_end(text, pos);
    if (end == std::string_view::npos) return stop("torn tail");
    try {
      apply_frame(text.substr(pos, end - pos), seq);
    } catch (const std::exception& e) {
      return stop("frame " + std::to_string(seq) + " rejected: " + e.what());
    }
    ++replay->frames;
    pos = end;
  }
}

// ---- JournalCommitter -----------------------------------------------------

JournalCommitter::JournalCommitter(std::string path,
                                   std::size_t keep_generations)
    : path_(std::move(path)),
      keep_generations_(std::max<std::size_t>(1, keep_generations)) {}

JournalCommitter::~JournalCommitter() { close_log(); }

void JournalCommitter::close_log() noexcept {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
  fd_ = -1;
}

bool JournalCommitter::wants_snapshot() const noexcept {
  return keep_generations_ > 1 || fd_ < 0 || log_bytes_ >= kCompactBytes;
}

std::string JournalCommitter::log_path(const std::string& path) {
  return path + ".log";
}

void JournalCommitter::discard_log(const std::string& path) {
  std::remove(log_path(path).c_str());
}

void JournalCommitter::commit_snapshot(std::string_view text) {
  const std::string_view base = stated_checksum(text);
  if (base.empty())
    throw std::invalid_argument(
        "JournalCommitter: snapshot is not a journal text");
  close_log();
  Journal::rotate_generations(path_, keep_generations_);
  journal_text::write_atomic(path_, text, &stats_);
  ++stats_.snapshots;
#if defined(__unix__) || defined(__APPLE__)
  if (keep_generations_ > 1) return;
  // Restart the log in place. Until its new header is durable the log is
  // empty, torn inside the header, or still names the replaced snapshot,
  // and load() replays nothing from it in all three cases.
  std::string header;
  journal_text::append_header(header, kLogMagic, 1);
  header += kLogBaseKey;
  header += '=';
  header += base;
  header += '\n';
  journal_text::append_checksum(header);
  const std::string log = log_path(path_);
  const int fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw std::runtime_error("Journal: cannot open " + log);
  // billcap-lint: allow(raw-write): the commit log's header, synced once
  if (!write_all(fd, header) || ::fdatasync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("Journal: cannot start " + log);
  }
  ++stats_.fdatasyncs;
  stats_.bytes += header.size();
  // The log may be a new directory entry: make it survive power loss too.
  sync_directory(log, &stats_);
  fd_ = fd;
  log_bytes_ = header.size();
  next_seq_ = 1;
#endif
}

void JournalCommitter::commit_frame(std::string_view entries) {
  if (wants_snapshot())
    throw std::logic_error("JournalCommitter: commit_frame needs an open log");
  if (entries.empty() || entries.back() != '\n' ||
      entries.substr(0, kFrameSeqLine.size()) == kFrameSeqLine ||
      entries.find(kFrameSeqInnerLine) != std::string_view::npos)
    throw std::invalid_argument(
        "JournalCommitter: a frame is newline-terminated key=value lines "
        "without a 'seq' key");
  frame_.assign(kFrameHeaderLine);
  frame_ += kFrameSeqLine;
  journal_text::append_u64(frame_, next_seq_);
  frame_ += '\n';
  frame_ += entries;
  journal_text::append_checksum(frame_);
#if defined(__unix__) || defined(__APPLE__)
  // One write and one fdatasync: the frame is the whole commit.
  // billcap-lint: allow(raw-write): the commit log's per-commit sync
  if (!write_all(fd_, frame_) || ::fdatasync(fd_) != 0) {
    close_log();
    throw std::runtime_error("Journal: append failed: " + log_path(path_));
  }
#endif
  ++next_seq_;
  log_bytes_ += frame_.size();
  ++stats_.appends;
  ++stats_.fdatasyncs;
  stats_.bytes += frame_.size();
}

}  // namespace billcap::util
