/**
 * @file
 * Tests for the CSBC checkpoint container: typed round trip, the
 * strict section protocol, and rejection of corrupt or truncated
 * streams (docs/CHECKPOINT.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace {

using csb::FatalError;
using csb::sim::CheckpointReader;
using csb::sim::CheckpointWriter;

CheckpointWriter
sampleWriter()
{
    CheckpointWriter cw;
    cw.beginSection("alpha");
    cw.putU8(0xab);
    cw.putU32(0xdeadbeef);
    cw.putU64(0x0123456789abcdefULL);
    cw.putF64(2.5);
    cw.putStr("hello");
    cw.beginSection("beta");
    const std::uint8_t blob[] = {1, 2, 3, 4, 5};
    cw.putBytes(blob, sizeof(blob));
    return cw;
}

std::string
serialized(const CheckpointWriter &cw)
{
    std::ostringstream os;
    cw.writeTo(os);
    return os.str();
}

TEST(Checkpoint, TypedRoundTrip)
{
    std::istringstream in(serialized(sampleWriter()));
    CheckpointReader cr = CheckpointReader::readFrom(in);
    EXPECT_EQ(cr.numSections(), 2u);

    cr.openSection("alpha");
    EXPECT_EQ(cr.getU8(), 0xab);
    EXPECT_EQ(cr.getU32(), 0xdeadbeefu);
    EXPECT_EQ(cr.getU64(), 0x0123456789abcdefULL);
    EXPECT_DOUBLE_EQ(cr.getF64(), 2.5);
    EXPECT_EQ(cr.getStr(), "hello");
    cr.closeSection();

    cr.openSection("beta");
    auto blob = cr.getBytes();
    ASSERT_EQ(blob.size(), 5u);
    EXPECT_EQ(blob[0], 1);
    EXPECT_EQ(blob[4], 5);
    cr.closeSection();
}

TEST(Checkpoint, ImageIsTheStreamAndClearStartsOver)
{
    CheckpointWriter cw = sampleWriter();
    const std::string bytes = serialized(cw);
    EXPECT_EQ(std::string(cw.image().begin(), cw.image().end()), bytes);
    EXPECT_EQ(serialized(cw), bytes) << "writeTo may be called again";

    cw.clear();
    EXPECT_EQ(cw.numSections(), 0u);
    EXPECT_EQ(serialized(cw), serialized(CheckpointWriter()));
    cw.beginSection("alpha");
    cw.putU8(0xab);
    CheckpointReader cr = CheckpointReader::fromImage(cw.image());
    EXPECT_EQ(cr.numSections(), 1u);
    cr.openSection("alpha");
    EXPECT_EQ(cr.getU8(), 0xab);
    cr.closeSection();
}

TEST(Checkpoint, SectionsOpenInAnyOrder)
{
    std::istringstream in(serialized(sampleWriter()));
    CheckpointReader cr = CheckpointReader::readFrom(in);
    cr.openSection("beta");
    (void)cr.getBytes();
    cr.closeSection();
    cr.openSection("alpha");
    EXPECT_EQ(cr.getU8(), 0xab);
    // Abandoning the rest of "alpha" without closeSection() is the
    // only way to leave a section early -- and closing it must throw.
    EXPECT_THROW(cr.closeSection(), FatalError);
}

TEST(Checkpoint, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "checkpoint_rt.csbc";
    sampleWriter().writeFile(path);
    CheckpointReader cr = CheckpointReader::loadFile(path);
    cr.openSection("alpha");
    EXPECT_EQ(cr.getU8(), 0xab);
    std::remove(path.c_str());
}

TEST(Checkpoint, OpeningMissingSectionThrows)
{
    std::istringstream in(serialized(sampleWriter()));
    CheckpointReader cr = CheckpointReader::readFrom(in);
    EXPECT_THROW(cr.openSection("gamma"), FatalError);
}

TEST(Checkpoint, ReadingPastSectionEndThrows)
{
    CheckpointWriter cw;
    cw.beginSection("tiny");
    cw.putU8(1);
    std::istringstream in(serialized(cw));
    CheckpointReader cr = CheckpointReader::readFrom(in);
    cr.openSection("tiny");
    EXPECT_EQ(cr.getU8(), 1);
    EXPECT_THROW(cr.getU64(), FatalError);
}

TEST(Checkpoint, UnconsumedPayloadFailsClose)
{
    CheckpointWriter cw;
    cw.beginSection("tiny");
    cw.putU32(7);
    std::istringstream in(serialized(cw));
    CheckpointReader cr = CheckpointReader::readFrom(in);
    cr.openSection("tiny");
    EXPECT_THROW(cr.closeSection(), FatalError);
}

TEST(Checkpoint, RejectsBadMagic)
{
    std::string bytes = serialized(sampleWriter());
    bytes[0] = 'X';
    std::istringstream in(bytes);
    EXPECT_THROW(CheckpointReader::readFrom(in), FatalError);
}

TEST(Checkpoint, RejectsUnknownVersion)
{
    std::string bytes = serialized(sampleWriter());
    bytes[4] = 42; // version field, little-endian low byte
    std::istringstream in(bytes);
    EXPECT_THROW(CheckpointReader::readFrom(in), FatalError);
}

TEST(Checkpoint, HeaderSaysVersion2AndVersion1IsRefused)
{
    std::string bytes = serialized(sampleWriter());
    EXPECT_EQ(bytes.substr(0, 8), std::string("CSBC\x02\0\0\0", 8));

    // A v1 image lists every cache set and the bus monitor's log; its
    // sections would misparse, so the header refuses it, naming both.
    bytes[4] = 1;
    std::istringstream in(bytes);
    try {
        CheckpointReader::readFrom(in);
        ADD_FAILURE() << "a version 1 image was accepted";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("version 1"), std::string::npos) << what;
        EXPECT_NE(what.find("version 2"), std::string::npos) << what;
    }
}

TEST(Checkpoint, RejectsTruncation)
{
    std::string bytes = serialized(sampleWriter());
    for (std::size_t cut : {std::size_t(10), bytes.size() / 2,
                            bytes.size() - 1}) {
        std::istringstream in(bytes.substr(0, cut));
        EXPECT_THROW(CheckpointReader::readFrom(in), FatalError)
            << "cut at " << cut;
    }
}

TEST(Checkpoint, RejectsTrailingBytes)
{
    std::istringstream in(serialized(sampleWriter()) + "junk");
    EXPECT_THROW(CheckpointReader::readFrom(in), FatalError);
}

TEST(Checkpoint, RejectsHugeSectionLength)
{
    // A corrupt length must fail as the section's FatalError, not as
    // an allocation of the declared size.  The first section's length
    // follows the 24-byte header, its 4-byte name length and "alpha".
    const std::string good = serialized(sampleWriter());
    const std::size_t at = 24 + 4 + 5;
    for (std::uint64_t len : {std::uint64_t(1) << 40, ~std::uint64_t(0)}) {
        std::string bytes = good;
        for (unsigned i = 0; i < 8; ++i)
            bytes[at + i] = char(len >> (8 * i));
        std::istringstream in(bytes);
        try {
            CheckpointReader::readFrom(in);
            ADD_FAILURE() << "length " << len << " accepted";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("'alpha'"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Checkpoint, LoadFileRejectsMissingFile)
{
    EXPECT_THROW(CheckpointReader::loadFile("/nonexistent/x.csbc"),
                 FatalError);
}

} // namespace
