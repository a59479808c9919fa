// Result-log tests: CRC32C, the fixed-record binary format, torn-write
// recovery (truncate at the first corrupt record), and the resume iterator.
// The log is the durability layer under the crash-safe sweep — every
// corruption case here is a state a SIGKILL'd sweep can actually leave
// behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_mutator.hpp"
#include "support/error.hpp"
#include "support/result_log.hpp"

namespace repmpi::support {
namespace {

/// Fresh per-test path under the gtest temp dir; removes leftovers.
std::string temp_log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_rlog_" + name;
  std::remove(path.c_str());
  std::remove((path + ".blob").c_str());
  return path;
}

ResultRecord make_record(const std::string& key, CellStatus status,
                         const std::string& blob, std::uint32_t attempts = 1,
                         std::int32_t code = 0) {
  ResultRecord r;
  r.key = key;
  r.status = status;
  r.attempts = attempts;
  r.code = code;
  r.blob = blob;
  return r;
}

std::vector<ResultRecord> read_all(const std::string& path,
                                   bool* dropped = nullptr) {
  ResultLogReader reader(path);
  std::vector<ResultRecord> out;
  ResultRecord r;
  while (reader.next(&r)) out.push_back(r);
  if (dropped != nullptr) *dropped = reader.dropped_tail();
  return out;
}

/// Appends raw bytes to a file (simulates a torn trailing write).
void append_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flips one byte at `offset`.
void corrupt_byte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x40));
}

constexpr long kHeaderBytes = 24;

TEST(Crc32c, KnownAnswerAndIncremental) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  // Incremental computation must match one-shot.
  const std::uint32_t head = crc32c(digits, 4);
  EXPECT_EQ(crc32c(digits + 4, 5, head), crc32c(digits, 9));
  // Sensitivity: any byte change moves the checksum.
  const char tweaked[] = "123456780";
  EXPECT_NE(crc32c(tweaked, 9), crc32c(digits, 9));
}

TEST(ResultLog, AppendReadRoundtrip) {
  const std::string path = temp_log_path("roundtrip");
  {
    ResultLog log(path);
    EXPECT_FALSE(log.recovered_torn_tail());
    log.append(make_record("cell.a", CellStatus::kOk, "{\"x\": 1}\n"));
    log.append(make_record("cell.b", CellStatus::kTimeout, "", 3, 9));
    log.append(make_record("cell.c", CellStatus::kExit, "partial", 2, 7));
    EXPECT_EQ(log.records().size(), 3u);
  }
  bool dropped = true;
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, "cell.a");
  EXPECT_EQ(records[0].status, CellStatus::kOk);
  EXPECT_EQ(records[0].blob, "{\"x\": 1}\n");
  EXPECT_EQ(records[1].key, "cell.b");
  EXPECT_EQ(records[1].status, CellStatus::kTimeout);
  EXPECT_EQ(records[1].attempts, 3u);
  EXPECT_EQ(records[1].code, 9);
  EXPECT_TRUE(records[1].blob.empty());
  EXPECT_EQ(records[2].key, "cell.c");
  EXPECT_EQ(records[2].blob, "partial");
}

TEST(ResultLog, MissingFileReadsEmpty) {
  const std::string path = temp_log_path("missing");
  bool dropped = true;
  EXPECT_TRUE(read_all(path, &dropped).empty());
  EXPECT_FALSE(dropped);
}

TEST(ResultLog, KeyTooLongThrows) {
  const std::string path = temp_log_path("longkey");
  ResultLog log(path);
  EXPECT_THROW(
      log.append(make_record(std::string(ResultLog::kMaxKeyLen + 1, 'k'),
                             CellStatus::kOk, "")),
      UsageError);
  // The longest legal key still roundtrips.
  const std::string max_key(ResultLog::kMaxKeyLen, 'k');
  log.append(make_record(max_key, CellStatus::kOk, "b"));
  EXPECT_EQ(read_all(path).at(0).key, max_key);
}

TEST(ResultLog, TornTrailingRecordTruncated) {
  const std::string path = temp_log_path("torn");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  // A writer died mid-record: half a record of plausible-looking bytes.
  append_bytes(path, std::string(ResultLog::kRecordSize / 2, 'X'));

  bool dropped = false;
  auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 2u);

  // Reopening for append truncates the torn tail and keeps working.
  {
    ResultLog log(path);
    EXPECT_TRUE(log.recovered_torn_tail());
    EXPECT_EQ(log.records().size(), 2u);
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].key, "c");
  EXPECT_EQ(records[2].blob, "blob-c");
}

TEST(ResultLog, FullSizeGarbageRecordTruncated) {
  // A torn write that happens to be record-sized must still be rejected
  // (CRC catches it), not parsed as a record.
  const std::string path = temp_log_path("garbage");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path, std::string(ResultLog::kRecordSize, '\xAB'));
  bool dropped = false;
  EXPECT_EQ(read_all(path, &dropped).size(), 1u);
  EXPECT_TRUE(dropped);
}

TEST(ResultLog, CorruptMiddleRecordTruncatesFromThere) {
  const std::string path = temp_log_path("middle");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  // Flip a byte inside record 2 (index 1): recovery keeps only record 1 —
  // append-only logs cannot trust anything past the first bad record.
  corrupt_byte(path, kHeaderBytes + ResultLog::kRecordSize + 10);
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
}

TEST(ResultLog, CorruptBlobDetectedViaBlobCrc) {
  const std::string path = temp_log_path("blobcrc");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  corrupt_byte(path + ".blob", 7);  // inside record b's blob bytes
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
}

TEST(ResultLog, CorruptHeaderStartsFresh) {
  const std::string path = temp_log_path("header");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  corrupt_byte(path, 2);  // inside the magic
  bool dropped = false;
  EXPECT_TRUE(read_all(path, &dropped).empty());
  EXPECT_TRUE(dropped);
  // A writer on a header-corrupt log starts over cleanly.
  {
    ResultLog log(path);
    EXPECT_TRUE(log.recovered_torn_tail());
    EXPECT_TRUE(log.records().empty());
    log.append(make_record("fresh", CellStatus::kOk, "x"));
  }
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "fresh");
}

TEST(ResultLog, RecoveryTruncatesOrphanBlobBytes) {
  // Crash between blob append and record append: blob bytes with no record
  // pointing at them. Recovery must drop them so the next append's offsets
  // are consistent.
  const std::string path = temp_log_path("orphanblob");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path + ".blob", "orphaned-bytes-from-a-dead-writer");
  {
    ResultLog log(path);
    EXPECT_EQ(log.records().size(), 1u);
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  bool dropped = false;
  const auto records = read_all(path, &dropped);
  EXPECT_FALSE(dropped);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].blob, "blob-b");
}

TEST(ResultLog, LatestByKeySelectsLastRecord) {
  const std::string path = temp_log_path("latest");
  ResultLog log(path);
  log.append(make_record("a", CellStatus::kCrash, "", 3, 11));
  log.append(make_record("b", CellStatus::kOk, "b1"));
  log.append(make_record("a", CellStatus::kOk, "a2", 1));  // re-run succeeded
  const auto latest = log.latest_by_key();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest.at("a").status, CellStatus::kOk);
  EXPECT_EQ(latest.at("a").blob, "a2");
  EXPECT_EQ(latest.at("b").blob, "b1");
}

TEST(ResultLog, ConcurrentReaderSeesOnlyWholeValidRecords) {
  // The results-index scan runs against logs a live daemon is appending to
  // (sweepctl dump/stats while sweepd serves). The reader must only ever
  // observe whole, CRC-valid records — at worst it stops early at the
  // writer's in-progress tail, never returns garbage.
  const std::string path = temp_log_path("concurrent");
  constexpr int kRecords = 400;
  std::atomic<int> written{0};
  std::atomic<bool> writer_done{false};

  std::thread writer([&] {
    ResultLog log(path);
    for (int i = 0; i < kRecords; ++i) {
      const std::string blob =
          "blob-" + std::to_string(i) + "-" + std::string(i % 97, 'x');
      log.append(make_record("cell." + std::to_string(i), CellStatus::kOk,
                             blob, static_cast<std::uint32_t>(i % 7 + 1)));
      written.store(i + 1, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  // Every record a scan yields must be internally consistent: the
  // key/blob pairing below only holds for uncorrupted records.
  const auto scan = [&path](std::size_t* out_n) {
    ResultLogReader reader(path);
    ResultRecord r;
    std::size_t n = 0;
    while (reader.next(&r)) {
      ASSERT_EQ(r.key, "cell." + std::to_string(n));
      ASSERT_EQ(r.blob.rfind("blob-" + std::to_string(n) + "-", 0), 0u);
      ASSERT_EQ(r.blob.size(), 5 + std::to_string(n).size() + 1 + n % 97);
      ++n;
    }
    *out_n = n;
  };

  std::size_t scans = 0;
  while (!writer_done.load(std::memory_order_acquire)) {
    const int floor_count = written.load(std::memory_order_acquire);
    std::size_t n = 0;
    ASSERT_NO_FATAL_FAILURE(scan(&n));
    // Appends are durable in order: everything written before the scan
    // started must be visible to it.
    ASSERT_GE(n, static_cast<std::size_t>(floor_count));
    ++scans;
  }
  writer.join();
  EXPECT_GE(scans, 1u);  // at least one scan raced live appends
  std::size_t final_n = 0;
  ASSERT_NO_FATAL_FAILURE(scan(&final_n));
  EXPECT_EQ(final_n, static_cast<std::size_t>(kRecords));
}

TEST(VerifyLog, CleanLogReportsOkPerRecord) {
  const std::string path = temp_log_path("verify_clean");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kCrash, "", 3, 9));
  }
  std::ostringstream out;
  const LogVerifyReport rep = verify_result_log(path, &out);
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(rep.exists);
  EXPECT_TRUE(rep.header_ok);
  EXPECT_EQ(rep.records_ok, 2u);
  EXPECT_EQ(rep.bad_bytes, 0u);
  EXPECT_EQ(rep.orphan_blob_bytes, 0u);
  EXPECT_TRUE(rep.first_error.empty());
  const std::string text = out.str();
  EXPECT_NE(text.find("record 0: ok key=a"), std::string::npos);
  EXPECT_NE(text.find("record 1: ok key=b"), std::string::npos);
  EXPECT_NE(text.find("clean"), std::string::npos);
}

TEST(VerifyLog, MissingAndEmptyLogs) {
  const std::string missing = temp_log_path("verify_missing");
  LogVerifyReport rep = verify_result_log(missing, nullptr);
  EXPECT_FALSE(rep.exists);
  EXPECT_FALSE(rep.clean());

  const std::string empty = temp_log_path("verify_empty");
  { ResultLog log(empty); }  // header only, no records
  rep = verify_result_log(empty, nullptr);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.records_ok, 0u);
}

TEST(VerifyLog, TornTailReportsTruncationPoint) {
  const std::string path = temp_log_path("verify_torn");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  append_bytes(path, std::string(ResultLog::kRecordSize / 2, 'X'));
  std::ostringstream out;
  const LogVerifyReport rep = verify_result_log(path, &out);
  EXPECT_FALSE(rep.clean());
  EXPECT_TRUE(rep.header_ok);
  EXPECT_EQ(rep.records_ok, 2u);
  EXPECT_EQ(rep.bad_bytes, ResultLog::kRecordSize / 2);
  // The truncation point a recovery would use: exactly the valid prefix.
  EXPECT_EQ(rep.valid_log_bytes, 24u + 2 * ResultLog::kRecordSize);
  EXPECT_FALSE(rep.first_error.empty());
  EXPECT_NE(out.str().find("CORRUPT"), std::string::npos);
}

TEST(VerifyLog, RecordCrcAndBlobCrcCorruptionClassified) {
  const std::string path = temp_log_path("verify_crc");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
    log.append(make_record("c", CellStatus::kOk, "blob-c"));
  }
  corrupt_byte(path, kHeaderBytes + ResultLog::kRecordSize + 10);
  LogVerifyReport rep = verify_result_log(path, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_NE(rep.first_error.find("record 1"), std::string::npos);

  // Blob-side corruption: the record file is pristine, the pointed-to
  // bytes are not — verify must catch it via the blob CRC.
  const std::string path2 = temp_log_path("verify_blobcrc");
  {
    ResultLog log(path2);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
    log.append(make_record("b", CellStatus::kOk, "blob-b"));
  }
  corrupt_byte(path2 + ".blob", 7);
  rep = verify_result_log(path2, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_NE(rep.first_error.find("blob"), std::string::npos);
}

TEST(VerifyLog, OrphanBlobBytesReported) {
  const std::string path = temp_log_path("verify_orphan");
  {
    ResultLog log(path);
    log.append(make_record("a", CellStatus::kOk, "blob-a"));
  }
  append_bytes(path + ".blob", "dead-writer-droppings");
  const LogVerifyReport rep = verify_result_log(path, nullptr);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.records_ok, 1u);
  EXPECT_EQ(rep.orphan_blob_bytes, 21u);
  EXPECT_NE(rep.first_error.find("orphan"), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool same_record(const ResultRecord& a, const ResultRecord& b) {
  return a.key == b.key && a.status == b.status && a.attempts == b.attempts &&
         a.code == b.code && a.blob == b.blob;
}

std::size_t common_prefix(const std::string& a, const std::string& b) {
  return static_cast<std::size_t>(
      std::mismatch(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(a.size(), b.size())),
                    b.begin())
          .first -
      a.begin());
}

// RawRecord field offsets (result_log.cpp).
constexpr std::size_t kBlobOffsetField = 72;
constexpr std::size_t kBlobLenField = 80;
constexpr std::size_t kRecordCrcField = 88;

/// Reseals the record CRC of record `k` of a log image, so an edited length
/// field reaches the range and blob checks behind the CRC.
void reseal_record(std::string& log, std::size_t k) {
  const std::size_t at = kHeaderBytes + k * ResultLog::kRecordSize;
  if (at + ResultLog::kRecordSize > log.size()) return;
  std::memset(log.data() + at + kRecordCrcField, 0, 4);
  const std::uint32_t crc = crc32c(log.data() + at, ResultLog::kRecordSize);
  std::memcpy(log.data() + at + kRecordCrcField, &crc, sizeof(crc));
}

TEST(ResultLogFuzz, MutatedLogsRecoverOnlyWrittenRecords) {
  // Six records with mixed statuses and blobs (two empty). Mutants hit the
  // record file or the blob file with multi-byte flips, splices (donors:
  // both files), truncations and extensions, or edit a record's blob
  // offset/length and reseal its CRC.
  const std::string src = temp_log_path("fuzz_src");
  std::vector<ResultRecord> original;
  {
    ResultLog log(src);
    for (int i = 0; i < 6; ++i) {
      original.push_back(make_record(
          "cell." + std::to_string(i), static_cast<CellStatus>(i % 5),
          i % 3 == 1 ? "" : std::string(10 + 7 * i, static_cast<char>('a' + i)),
          static_cast<std::uint32_t>(1 + i), i - 2));
      log.append(original.back());
    }
  }
  const std::string log0 = slurp(src);
  const std::string blob0 = slurp(src + ".blob");
  std::vector<std::size_t> blob_end;  // end of record k's blob bytes
  for (const ResultRecord& r : original)
    blob_end.push_back((blob_end.empty() ? 0 : blob_end.back()) +
                       r.blob.size());

  const std::string path = temp_log_path("fuzz");
  repmpi::testing::Mutator m(0xf00d1065ULL);
  for (int i = 0; i < 1500; ++i) {
    std::string log = log0;
    std::string blob = blob0;
    switch (m.below(4)) {
      case 0: {
        const std::size_t k = m.below(original.size());
        const std::size_t field = m.coin(2) ? kBlobOffsetField : kBlobLenField;
        m.put_u32(log, kHeaderBytes + k * ResultLog::kRecordSize + field,
                  static_cast<std::uint32_t>(blob0.size()));
        reseal_record(log, k);
        break;
      }
      case 1: m.mutate(blob, m.coin(2) ? log0 : blob0); break;
      default: m.mutate(log, m.coin(2) ? log0 : blob0); break;
    }
    write_file(path, log);
    write_file(path + ".blob", blob);
    // Records wholly before the first changed byte of either file (their
    // blobs included) must survive as they were.
    const std::size_t log_same = common_prefix(log, log0);
    const std::size_t blob_same = common_prefix(blob, blob0);
    std::size_t intact = 0;
    while (intact < original.size() &&
           kHeaderBytes + (intact + 1) * ResultLog::kRecordSize <= log_same &&
           blob_end[intact] <= blob_same)
      ++intact;

    std::ostringstream sink;  // exercises the per-record report too
    const LogVerifyReport rep = verify_result_log(path, &sink);
    ResultLogReader reader(path);
    std::vector<ResultRecord> got;
    for (ResultRecord r; reader.next(&r);) got.push_back(r);
    ASSERT_EQ(rep.records_ok, got.size()) << "mutant " << i;
    ASSERT_EQ(rep.valid_log_bytes, reader.valid_log_bytes()) << "mutant " << i;
    ASSERT_EQ(rep.valid_blob_bytes, reader.valid_blob_bytes())
        << "mutant " << i;
    ASSERT_GE(got.size(), intact) << "mutant " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      // Past the intact prefix a record may still be a whole copy of one
      // the writer wrote (per-record CRCs cannot tell a copy from a
      // re-append), but never anything else.
      if (k < intact) {
        ASSERT_TRUE(same_record(got[k], original[k])) << "mutant " << i;
      } else {
        ASSERT_TRUE(std::any_of(original.begin(), original.end(),
                                [&](const ResultRecord& o) {
                                  return same_record(got[k], o);
                                }))
            << "mutant " << i << " record " << k;
      }
    }

    // Opening recovers exactly what the reader saw and leaves a log that
    // verifies clean.
    {
      ResultLog reopened(path);
      ASSERT_EQ(reopened.records().size(), got.size()) << "mutant " << i;
      for (std::size_t k = 0; k < got.size(); ++k)
        ASSERT_TRUE(same_record(reopened.records()[k], got[k]))
            << "mutant " << i;
    }
    const LogVerifyReport after = verify_result_log(path, nullptr);
    ASSERT_TRUE(after.clean()) << "mutant " << i << ": " << after.first_error;
    ASSERT_EQ(after.records_ok, got.size()) << "mutant " << i;
  }
}

TEST(ResultLog, StatusNamesAreDistinct) {
  EXPECT_STREQ(to_string(CellStatus::kOk), "ok");
  EXPECT_STREQ(to_string(CellStatus::kCrash), "crash");
  EXPECT_STREQ(to_string(CellStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(CellStatus::kExit), "exit");
  EXPECT_STREQ(to_string(CellStatus::kCorrupt), "corrupt");
}

}  // namespace
}  // namespace repmpi::support
