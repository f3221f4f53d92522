#include "util/journal.hpp"

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
  for (const auto& [k, v] : entries_) {
    text += k;
    text += '=';
    text += v;
    text += '\n';
  }
  journal_text::append_checksum(text);
  return text;
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

void write_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  // POSIX path: fsync the data before the rename and the directory after
  // it. Without the directory fsync the rename lives only in the page
  // cache — a power cut could resurrect the *old* journal (process-death
  // durability but not power-loss durability).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw std::runtime_error("Journal: cannot open " + tmp);
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw std::runtime_error("Journal: write failed: " + tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw std::runtime_error("Journal: fsync failed: " + tmp);
  }
  if (::close(fd) != 0)
    throw std::runtime_error("Journal: close failed: " + tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("Journal: rename " + tmp + " -> " + path +
                             " failed");
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    // Some filesystems refuse fsync on a directory handle (EINVAL); that
    // is a property of the mount, not an I/O error worth aborting for.
    ::fsync(dfd);
    ::close(dfd);
  }
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
                      int max_version) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("Journal: cannot open " + path);
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("Journal: cannot read " + path);
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (!in) throw std::runtime_error("Journal: cannot read " + path);
  return parse(text, expected_magic, max_version);
}

}  // namespace billcap::util
