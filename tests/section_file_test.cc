// Container cases of the section-file format (core/section_file.h), run
// once against a small audit.bin and a small timeline.bin through their
// own readers: the header and table checks, section checksums, truncation
// and growth, and hostile table fields resealed so that every checksum
// holds. Each rejection must be a Status naming the check that caught it.
// The schema cases stay with their artifacts (audit_test, timeline_test).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "audit/format.h"
#include "audit/reader.h"
#include "core/section_file.h"
#include "obs/timeline.h"
#include "section_file_test.h"

namespace sisyphus {
namespace {

using namespace section_file_test;  // NOLINT
using core::section_file::kHeaderSize;

/// One artifact under test: its bytes and its reader, which opens a byte
/// image and checks every section.
struct Artifact {
  std::string name;
  std::string bytes;
  std::uint32_t version = 0;
  std::function<core::Status(const std::string&)> open;
};

core::Status OpenAudit(const std::string& bytes) {
  const std::string path = TempPath("section-file-audit.bin");
  WriteFile(path, bytes);
  audit::AuditReader reader;
  const core::Status opened = reader.Open(path);
  if (!opened.ok()) {
    EXPECT_FALSE(reader.is_open());  // a failed Open leaves it closed
    return opened;
  }
  return reader.VerifyAll();
}

core::Status ParseTimeline(const std::string& bytes) {
  obs::TimelineReader reader;
  return reader.Parse(bytes);
}

std::string SmallTimelineArtifact() {
  const bool was_enabled = obs::Timeline::enabled();
  obs::Timeline::Enable(true);
  obs::Timeline timeline;
  std::string artifact = PlainTimelineArtifact(timeline);
  obs::Timeline::Enable(was_enabled);
  return artifact;
}

std::vector<Artifact> Artifacts() {
  return {{"audit.bin", SmallAuditArtifact(), audit::kAuditVersion, OpenAudit},
          {"timeline.bin", SmallTimelineArtifact(), obs::kTimelineVersion,
           ParseTimeline}};
}

// Version 1 — the same bytes checksummed with FNV-1a — is refused by its
// version word, not misread and not reported as a checksum failure.
TEST(SectionFileTest, RefusesTheFnvVersion1FramingByVersion) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    ASSERT_EQ(GetU64At(artifact.bytes, 8) & 0xffffffffu, artifact.version);
    std::string old = artifact.bytes;
    old[8] = 1;
    Reseal(old, Fnv);
    ExpectParseError(artifact.open(old), "unsupported version 1 (this reader "
                                         "reads version 2)");

    // The current version word under the old checksums is a damaged file.
    std::string mixed = artifact.bytes;
    Reseal(mixed, Fnv);
    ExpectParseError(artifact.open(mixed), "header checksum mismatch");

    // Resealing is the only difference: the same file opens once resealed.
    Reseal(mixed);
    EXPECT_TRUE(artifact.open(mixed).ok());
  }
}

// Every header byte is covered: the magic and version by their own checks,
// the rest by the header checksum.
TEST(SectionFileTest, RejectsAFlippedByteInTheHeader) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    for (std::size_t offset = 0; offset < kHeaderSize; ++offset) {
      std::string bad = artifact.bytes;
      bad[offset] = static_cast<char>(bad[offset] ^ 0x5a);
      ExpectParseError(artifact.open(bad),
                       offset < 8    ? "bad magic"
                       : offset < 12 ? "unsupported version"
                                     : "header checksum mismatch");
    }
  }
}

// The header records the exact file size and the table must close the
// file, so every proper prefix and every appended tail is refused.
TEST(SectionFileTest, RejectsEveryTruncationAndGrowth) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    for (std::size_t size = 0; size < artifact.bytes.size(); ++size) {
      ExpectParseError(artifact.open(artifact.bytes.substr(0, size)),
                       size < kHeaderSize ? "truncated header"
                                          : "file size mismatch");
    }
    for (std::size_t extra = 1; extra <= kEntrySize + 8; ++extra) {
      ExpectParseError(artifact.open(artifact.bytes + std::string(extra, 'x')),
                       "file size mismatch");
    }
  }
}

TEST(SectionFileTest, MissingFileIsNotFound) {
  audit::AuditReader audit_reader;
  const core::Status audit_status =
      audit_reader.Open(TempPath("section-file-never-written.bin"));
  ASSERT_FALSE(audit_status.ok());
  EXPECT_EQ(audit_status.error().code(), core::ErrorCode::kNotFound);
  EXPECT_FALSE(audit_reader.is_open());

  obs::TimelineReader timeline_reader;
  const core::Status timeline_status =
      timeline_reader.OpenFile(TempPath("section-file-never-written.bin"));
  ASSERT_FALSE(timeline_status.ok());
  EXPECT_EQ(timeline_status.error().code(), core::ErrorCode::kNotFound);
}

// A flipped byte in any section, in the table or in the table checksum
// trips the checksum that covers it.
TEST(SectionFileTest, RejectsAFlippedByteInEverySectionAndTheTable) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    const std::uint64_t count = GetU64At(artifact.bytes, 16);
    const std::uint64_t table = GetU64At(artifact.bytes, 24);
    std::size_t flipped = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t entry = table + i * kEntrySize;
      const std::uint64_t size = GetU64At(artifact.bytes, entry + 24);
      if (size == 0) continue;
      std::string bad = artifact.bytes;
      const std::uint64_t at = GetU64At(bad, entry + 16) + size / 2;
      bad[at] = static_cast<char>(bad[at] ^ 0x5a);
      ExpectParseError(artifact.open(bad), "section " + std::to_string(i) +
                                               " checksum mismatch (kind " +
                                               std::to_string(GetU64At(
                                                   bad, entry)));
      ++flipped;
    }
    EXPECT_GE(flipped, 3u);
    const std::uint64_t table_end = table + count * kEntrySize;
    for (const std::uint64_t at : {table + 1, table_end - 1, table_end}) {
      std::string bad = artifact.bytes;
      bad[at] = static_cast<char>(bad[at] ^ 0x5a);
      ExpectParseError(artifact.open(bad), "section table checksum mismatch");
    }
  }
}

// The audit reader opens in O(index): it checks a payload section's
// checksum on first use, so VerifyAll (what --check and obscheck run) is
// what catches a flip there.
TEST(SectionFileTest, AuditOpenLeavesPayloadChecksumsToFirstUse) {
  std::string bad = SmallAuditArtifact();
  const std::uint64_t records = EntryOf(bad, audit::SectionKind::kRecords);
  const std::uint64_t at = GetU64At(bad, records + 16) + 8;
  bad[at] = static_cast<char>(bad[at] ^ 0x5a);
  const std::string path = TempPath("section-file-lazy.bin");
  WriteFile(path, bad);
  audit::AuditReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  ExpectParseError(reader.VerifyAll(), "checksum mismatch (kind 3, run 0)");
  ExpectParseError(reader.Records(0), "checksum mismatch (kind 3, run 0)");
}

// ---------------------------------------------------------------------------
// Hostile table fields, each resealed so that it reaches the table check
// instead of tripping a checksum.

TEST(SectionFileTest, SectionCountThatWrapsTheTableSize) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    // 2^61 entries of 40 bytes wrap to a 0-byte table, whose checksum is
    // the checksum of nothing: once where the table was, and once with the
    // table moved to close the file.
    for (const bool closes : {false, true}) {
      std::string bad = artifact.bytes;
      PutU64At(bad, 16, std::uint64_t{1} << 61);
      if (closes) PutU64At(bad, 24, bad.size() - 8);
      ResealTable(bad);
      ExpectParseError(artifact.open(bad),
                       "section table does not close the file");
    }
  }
}

// Bytes after the table checksum, with the header's size grown to match:
// the table must close the file, so they cannot hide there.
TEST(SectionFileTest, TrailingBytesAfterTheTable) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    std::string bad = artifact.bytes + std::string(8, '\0');
    PutU64At(bad, 32, bad.size());
    ResealTable(bad);
    ExpectParseError(artifact.open(bad),
                     "section table does not close the file");
  }
}

TEST(SectionFileTest, SectionSpanThatWraps) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    // offset + size wraps to 8.
    std::string bad = artifact.bytes;
    const std::uint64_t entry = GetU64At(bad, 24);
    PutU64At(bad, entry + 16, ~std::uint64_t{0} - 7);
    PutU64At(bad, entry + 24, 16);
    ResealTable(bad);
    ExpectParseError(artifact.open(bad), "section 0 overruns the table");
  }
}

// Every section moved to byte 8, and one byte back: both stay inside the
// file with their checksums resealed, so only the entry checks can refuse
// them. A timeline series section passes every schema check either way.
TEST(SectionFileTest, SectionInsideTheHeaderOrMisaligned) {
  for (const Artifact& artifact : Artifacts()) {
    SCOPED_TRACE(artifact.name);
    const std::uint64_t count = GetU64At(artifact.bytes, 16);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t entry = GetU64At(artifact.bytes, 24) + i * kEntrySize;
      const std::uint64_t offset = GetU64At(artifact.bytes, entry + 16);
      const std::string name = "section " + std::to_string(i);

      std::string inside = artifact.bytes;
      PutU64At(inside, entry + 16, 8);
      Reseal(inside);
      ExpectParseError(artifact.open(inside),
                       name + " starts inside the header");

      if (offset == kHeaderSize) continue;  // one byte back is the header
      std::string misaligned = artifact.bytes;
      PutU64At(misaligned, entry + 16, offset - 1);
      Reseal(misaligned);
      ExpectParseError(artifact.open(misaligned),
                       name + " is not 8-byte aligned");
    }
  }
}

// The container round trip on its own: sections start 8-byte aligned,
// global and per-run entries keep their run, and the file reads back.
TEST(SectionFileTest, BuilderRoundTrip) {
  core::section_file::Builder builder;
  builder.Add(7, core::section_file::kGlobal,
              [](core::binio::Writer& w) { w.PutU8(1); });
  builder.Add(9, 3, [](core::binio::Writer& w) { w.PutU64(42); });
  builder.Add(9, 4, [](core::binio::Writer&) {});
  constexpr core::section_file::Format kFormat{"TESTFMT1", 5};
  const std::string file = std::move(builder).Finish(kFormat);
  const auto table = core::section_file::ReadTable(file, kFormat);
  ASSERT_TRUE(table.ok()) << table.error().message();
  ASSERT_EQ(table.value().size(), 3u);
  EXPECT_EQ(table.value()[0].kind, 7u);
  EXPECT_EQ(table.value()[0].run, core::section_file::kGlobal);
  EXPECT_EQ(table.value()[0].offset, kHeaderSize);
  EXPECT_EQ(table.value()[0].size, 1u);
  EXPECT_EQ(table.value()[1].offset, kHeaderSize + 8);
  EXPECT_EQ(table.value()[1].run, 3u);
  EXPECT_EQ(table.value()[2].size, 0u);
  for (std::size_t i = 0; i < table.value().size(); ++i) {
    EXPECT_TRUE(
        core::section_file::VerifySection(file, table.value()[i], i).ok());
  }
  ExpectParseError(core::section_file::ReadTable(file, {"TESTFMT2", 5}),
                   "bad magic (want TESTFMT2)");
}

// The write goes through a temporary file that the rename consumes.
TEST(SectionFileTest, WriteFileReplacesThroughATemporary) {
  const std::string path = TempPath("section-file-write.bin");
  ASSERT_TRUE(core::section_file::WriteFile(path, "first").ok());
  ASSERT_TRUE(core::section_file::WriteFile(path, "second").ok());
  std::ifstream in(path, std::ios::binary);
  const std::string read((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(read, "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const core::Status missing_dir = core::section_file::WriteFile(
      TempPath("no-such-dir/section-file.bin"), "x");
  ASSERT_FALSE(missing_dir.ok());
  EXPECT_NE(missing_dir.error().message().find("cannot open"),
            std::string::npos);
}

}  // namespace
}  // namespace sisyphus
