#include "support/result_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "support/error.hpp"

namespace repmpi::support {
namespace {

// On-disk shapes. Fixed sizes and explicit little-endian-native fields; the
// log is a per-host artifact (resume happens on the machine that crashed),
// so no byte-swapping is done.
struct FileHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t record_size;
  std::uint32_t reserved;
  std::uint32_t crc;  ///< CRC32C of the header with this field zeroed
};
static_assert(sizeof(FileHeader) == 24);

struct RawRecord {
  char key[56];  ///< NUL-terminated scenario key
  std::uint32_t status;
  std::uint32_t attempts;
  std::int32_t code;
  std::uint32_t reserved;
  std::uint64_t blob_offset;  ///< into the .blob sidecar file
  std::uint32_t blob_len;
  std::uint32_t blob_crc;   ///< CRC32C of the blob bytes
  std::uint32_t record_crc; ///< CRC32C of this record with this field zeroed
};
static_assert(sizeof(RawRecord) == ResultLog::kRecordSize);

constexpr char kMagic[8] = {'R', 'M', 'P', 'L', 'O', 'G', '1', '\0'};

std::string blob_path(const std::string& path) { return path + ".blob"; }

FileHeader make_header() {
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = ResultLog::kVersion;
  h.record_size = ResultLog::kRecordSize;
  h.crc = 0;
  h.crc = crc32c(&h, sizeof(h));
  return h;
}

bool header_valid(const FileHeader& h) {
  FileHeader copy = h;
  copy.crc = 0;
  return std::memcmp(h.magic, kMagic, sizeof(kMagic)) == 0 &&
         h.version == ResultLog::kVersion &&
         h.record_size == ResultLog::kRecordSize &&
         h.crc == crc32c(&copy, sizeof(copy));
}

/// Reads exactly `len` bytes at `offset`; false on short read or error.
bool pread_all(int fd, void* buf, std::size_t len, std::uint64_t offset) {
  auto* p = static_cast<char*>(buf);
  while (len > 0) {
    const ssize_t n = ::pread(fd, p, len, static_cast<off_t>(offset));
    if (n <= 0) return false;
    p += n;
    offset += static_cast<std::uint64_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const char*>(buf);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t file_size(int fd) {
  const off_t end = ::lseek(fd, 0, SEEK_END);
  return end < 0 ? 0 : static_cast<std::uint64_t>(end);
}

RawRecord encode(const ResultRecord& r) {
  RawRecord raw{};
  std::memcpy(raw.key, r.key.data(), r.key.size());  // caller checked length
  raw.status = static_cast<std::uint32_t>(r.status);
  raw.attempts = r.attempts;
  raw.code = r.code;
  raw.blob_len = static_cast<std::uint32_t>(r.blob.size());
  raw.blob_crc = crc32c(r.blob.data(), r.blob.size());
  return raw;
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t len, std::uint32_t crc) {
  // Software CRC32C (Castagnoli, reflected polynomial 0x82F63B78), one
  // table built on first use. Plenty for record-sized inputs.
  static const std::uint32_t* kTable = [] {
    static std::uint32_t table[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return table;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i)
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

const char* to_string(CellStatus status) {
  switch (status) {
    case CellStatus::kOk: return "ok";
    case CellStatus::kCrash: return "crash";
    case CellStatus::kTimeout: return "timeout";
    case CellStatus::kExit: return "exit";
    case CellStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

// --- Offline verify (fsck) --------------------------------------------------

LogVerifyReport verify_result_log(const std::string& path,
                                  std::ostream* out) {
  LogVerifyReport rep;
  const int log_fd = ::open(path.c_str(), O_RDONLY);
  if (log_fd < 0) {
    rep.first_error = "cannot open " + path;
    if (out) *out << "verify-log: " << rep.first_error << "\n";
    return rep;
  }
  rep.exists = true;
  const int blob_fd = ::open(blob_path(path).c_str(), O_RDONLY);
  const std::uint64_t log_size = file_size(log_fd);
  const std::uint64_t blob_size = blob_fd >= 0 ? file_size(blob_fd) : 0;

  const auto fail = [&](std::uint64_t offset, const std::string& what) {
    if (rep.first_error.empty()) {
      rep.first_error = what;
      rep.valid_log_bytes =
          rep.header_ok ? offset : 0;  // a bad header trusts nothing
    }
  };

  FileHeader h{};
  if (!pread_all(log_fd, &h, sizeof(h), 0) || !header_valid(h)) {
    if (log_size == 0) {
      // First header write interrupted: an empty file is a clean empty log.
      rep.header_ok = true;
      if (out) *out << "header: empty file (clean empty log)\n";
    } else {
      fail(0, "header torn or foreign (magic/version/CRC mismatch)");
      if (out) *out << "header: BAD — " << rep.first_error << "\n";
    }
  } else {
    rep.header_ok = true;
    rep.valid_log_bytes = sizeof(FileHeader);
    if (out)
      *out << "header: ok (version " << h.version << ", " << h.record_size
           << "-byte records)\n";
  }

  std::uint64_t offset = sizeof(FileHeader);
  std::uint64_t index = 0;
  std::uint64_t claimed_blob_end = 0;
  while (rep.header_ok && offset < log_size) {
    RawRecord raw{};
    if (log_size - offset < sizeof(raw)) {
      fail(offset, "torn trailing record (" +
                       std::to_string(log_size - offset) + " of " +
                       std::to_string(sizeof(raw)) + " bytes)");
      if (out)
        *out << "record " << index << ": BAD — " << rep.first_error << "\n";
      break;
    }
    REPMPI_CHECK(pread_all(log_fd, &raw, sizeof(raw), offset));
    RawRecord copy = raw;
    copy.record_crc = 0;
    std::string what;
    if (raw.record_crc != crc32c(&copy, sizeof(copy))) {
      what = "record CRC mismatch";
    } else if (std::memchr(raw.key, '\0', sizeof(raw.key)) == nullptr) {
      what = "unterminated key";
    } else if (raw.blob_offset + raw.blob_len < raw.blob_offset ||
               raw.blob_offset + raw.blob_len > blob_size) {
      what = "blob range outside blob file";
    } else {
      std::string blob(raw.blob_len, '\0');
      if (raw.blob_len > 0 &&
          (blob_fd < 0 ||
           !pread_all(blob_fd, blob.data(), blob.size(), raw.blob_offset))) {
        what = "blob bytes unreadable";
      } else if (crc32c(blob.data(), blob.size()) != raw.blob_crc) {
        what = "blob CRC mismatch";
      }
    }
    if (!what.empty()) {
      fail(offset, "record " + std::to_string(index) + ": " + what);
      if (out) *out << "record " << index << ": BAD — " << what << "\n";
      // Append-only logs cannot trust anything past the first bad record;
      // stop classifying individual records (the rest is bad_bytes).
      break;
    }
    if (out)
      *out << "record " << index << ": ok key=" << raw.key
           << " status=" << to_string(static_cast<CellStatus>(raw.status))
           << " attempts=" << raw.attempts << " blob=" << raw.blob_len
           << "B\n";
    offset += sizeof(raw);
    ++index;
    rep.records_ok = index;
    rep.valid_log_bytes = offset;
    claimed_blob_end = std::max(
        claimed_blob_end,
        raw.blob_offset + static_cast<std::uint64_t>(raw.blob_len));
  }
  rep.valid_blob_bytes = claimed_blob_end;
  rep.bad_bytes = log_size - rep.valid_log_bytes;
  if (blob_size > claimed_blob_end) {
    rep.orphan_blob_bytes = blob_size - claimed_blob_end;
    if (rep.first_error.empty())
      rep.first_error = "orphan blob tail (" +
                        std::to_string(rep.orphan_blob_bytes) +
                        " bytes no record claims)";
    if (out)
      *out << "blob: " << rep.orphan_blob_bytes
           << " orphan trailing bytes (a writer died between blob and "
              "record append)\n";
  }
  if (out) {
    if (rep.clean()) {
      *out << "verify-log: clean — " << rep.records_ok << " records, "
           << rep.valid_log_bytes << " log bytes, " << rep.valid_blob_bytes
           << " blob bytes\n";
    } else {
      *out << "verify-log: CORRUPT — " << rep.first_error << "; consistent "
           << "prefix = " << rep.records_ok << " records ("
           << rep.valid_log_bytes << " log bytes, " << rep.valid_blob_bytes
           << " blob bytes), " << rep.bad_bytes
           << " record-file bytes dropped by recovery\n";
    }
  }
  ::close(log_fd);
  if (blob_fd >= 0) ::close(blob_fd);
  return rep;
}

// --- Reader -----------------------------------------------------------------

ResultLogReader::ResultLogReader(const std::string& path) {
  log_fd_ = ::open(path.c_str(), O_RDONLY);
  if (log_fd_ < 0) {
    done_ = true;  // no log yet: empty, nothing dropped
    return;
  }
  blob_fd_ = ::open(blob_path(path).c_str(), O_RDONLY);
  blob_size_ = blob_fd_ >= 0 ? file_size(blob_fd_) : 0;

  FileHeader h{};
  if (!pread_all(log_fd_, &h, sizeof(h), 0) || !header_valid(h)) {
    // Header torn or foreign: nothing trustworthy follows. An empty file
    // (first header write interrupted) is a clean empty log, not a drop.
    done_ = true;
    dropped_tail_ = file_size(log_fd_) != 0;
    return;
  }
  next_offset_ = sizeof(FileHeader);
  valid_log_bytes_ = sizeof(FileHeader);
}

ResultLogReader::~ResultLogReader() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (blob_fd_ >= 0) ::close(blob_fd_);
}

bool ResultLogReader::next(ResultRecord* out) {
  if (done_) return false;
  RawRecord raw{};
  if (!pread_all(log_fd_, &raw, sizeof(raw), next_offset_)) {
    // Clean end of log, or a torn trailing partial record.
    done_ = true;
    dropped_tail_ = file_size(log_fd_) != next_offset_;
    return false;
  }
  RawRecord copy = raw;
  copy.record_crc = 0;
  const bool key_terminated =
      std::memchr(raw.key, '\0', sizeof(raw.key)) != nullptr;
  const bool blob_in_range =
      raw.blob_offset + raw.blob_len <= blob_size_ &&
      raw.blob_offset + raw.blob_len >= raw.blob_offset;  // overflow guard
  // The blob buffer is sized only once the record checks out, so a corrupt
  // blob_len can never make the reader allocate more than the blob file.
  std::string blob;
  bool intact = raw.record_crc == crc32c(&copy, sizeof(copy)) &&
                key_terminated && blob_in_range;
  if (intact) {
    blob.resize(raw.blob_len);
    intact = (raw.blob_len == 0 ||
              (blob_fd_ >= 0 && pread_all(blob_fd_, blob.data(), blob.size(),
                                          raw.blob_offset))) &&
             crc32c(blob.data(), blob.size()) == raw.blob_crc;
  }
  if (!intact) {
    done_ = true;
    dropped_tail_ = true;
    return false;
  }
  out->key = raw.key;
  out->status = static_cast<CellStatus>(raw.status);
  out->attempts = raw.attempts;
  out->code = raw.code;
  out->blob = std::move(blob);
  next_offset_ += sizeof(RawRecord);
  valid_log_bytes_ = next_offset_;
  // Blobs are appended in record order, so the consistent blob prefix ends
  // where the last valid record's blob does.
  valid_blob_bytes_ =
      std::max(valid_blob_bytes_, raw.blob_offset + raw.blob_len);
  return true;
}

// --- Writer -----------------------------------------------------------------

ResultLog::ResultLog(std::string path) : path_(std::move(path)) {
  bool had_tail = false;
  std::uint64_t keep_log = sizeof(FileHeader);
  std::uint64_t keep_blob = 0;
  bool fresh = true;
  {
    ResultLogReader reader(path_);
    ResultRecord r;
    while (reader.next(&r)) records_.push_back(std::move(r));
    // next() returned false: reader state is final.
    had_tail = reader.dropped_tail();
    if (reader.valid_log_bytes() > 0) {
      fresh = false;
      keep_log = reader.valid_log_bytes();
      keep_blob = reader.valid_blob_bytes();
    }
  }
  recovered_torn_tail_ = had_tail;

  log_fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  blob_fd_ = ::open(blob_path(path_).c_str(), O_RDWR | O_CREAT, 0644);
  REPMPI_CHECK_MSG(log_fd_ >= 0 && blob_fd_ >= 0,
                   "cannot open result log " << path_);
  if (fresh) {
    // New or unrecoverable log: start over from a clean header.
    REPMPI_CHECK(::ftruncate(log_fd_, 0) == 0);
    REPMPI_CHECK(::ftruncate(blob_fd_, 0) == 0);
    const FileHeader h = make_header();
    REPMPI_CHECK(write_all(log_fd_, &h, sizeof(h)));
  } else {
    // Drop the torn tail (no-op when the log ended cleanly).
    REPMPI_CHECK(::ftruncate(log_fd_, static_cast<off_t>(keep_log)) == 0);
    REPMPI_CHECK(::ftruncate(blob_fd_, static_cast<off_t>(keep_blob)) == 0);
    REPMPI_CHECK(::lseek(log_fd_, 0, SEEK_END) >= 0);
    REPMPI_CHECK(::lseek(blob_fd_, 0, SEEK_END) >= 0);
    blob_offset_ = keep_blob;
  }

  if (const char* knob = std::getenv("REPMPI_FAULT_LOG_ABORT"))
    fault_abort_countdown_ = std::strtol(knob, nullptr, 10);
}

ResultLog::~ResultLog() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (blob_fd_ >= 0) ::close(blob_fd_);
}

void ResultLog::append(const ResultRecord& record) {
  if (record.key.size() > kMaxKeyLen)
    throw UsageError("result-log key too long: " + record.key);
  RawRecord raw = encode(record);
  raw.blob_offset = blob_offset_;
  raw.record_crc = crc32c(&raw, sizeof(raw));

  // Blob first, record second: a record on disk always points at bytes that
  // made it to disk before it.
  REPMPI_CHECK(write_all(blob_fd_, record.blob.data(), record.blob.size()));
  REPMPI_CHECK(::fsync(blob_fd_) == 0);

  if (fault_abort_countdown_ >= 0 && --fault_abort_countdown_ < 0) {
    // Chaos knob: die halfway through the record write — exactly the torn
    // state recovery must truncate.
    (void)write_all(log_fd_, &raw, sizeof(raw) / 2);
    ::fsync(log_fd_);
    ::_exit(43);
  }

  REPMPI_CHECK(write_all(log_fd_, &raw, sizeof(raw)));
  REPMPI_CHECK(::fsync(log_fd_) == 0);

  blob_offset_ += record.blob.size();
  records_.push_back(record);
}

std::map<std::string, ResultRecord> ResultLog::latest_by_key() const {
  std::map<std::string, ResultRecord> latest;
  for (const ResultRecord& r : records_) latest[r.key] = r;
  return latest;
}

}  // namespace repmpi::support
