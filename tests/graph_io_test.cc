#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "graph/binary_edge_list.h"
#include "graph/edge_stream.h"
#include "graph/in_memory_edge_stream.h"
#include "graph/text_edge_list.h"
#include "graph/types.h"
#include "io/edge_file.h"

namespace tpsl {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<Edge> SampleEdges() {
  return {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {7, 7}};
}

TEST(InMemoryEdgeStreamTest, DeliversAllEdgesInOrder) {
  InMemoryEdgeStream stream(SampleEdges());
  std::vector<Edge> got;
  ASSERT_TRUE(ForEachEdge(stream, [&](const Edge& e) { got.push_back(e); })
                  .ok());
  EXPECT_EQ(got, SampleEdges());
}

TEST(InMemoryEdgeStreamTest, SupportsMultiplePasses) {
  InMemoryEdgeStream stream(SampleEdges());
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t count = 0;
    ASSERT_TRUE(ForEachEdge(stream, [&](const Edge&) { ++count; }).ok());
    EXPECT_EQ(count, SampleEdges().size());
  }
}

TEST(InMemoryEdgeStreamTest, NextRespectsCapacity) {
  InMemoryEdgeStream stream(SampleEdges());
  ASSERT_TRUE(stream.Reset().ok());
  Edge buffer[2];
  EXPECT_EQ(stream.Next(buffer, 2), 2u);
  EXPECT_EQ(buffer[0], (Edge{0, 1}));
  EXPECT_EQ(stream.Next(buffer, 2), 2u);
  EXPECT_EQ(stream.Next(buffer, 2), 2u);
  EXPECT_EQ(stream.Next(buffer, 2), 0u);
}

TEST(InMemoryEdgeStreamTest, EmptyStream) {
  InMemoryEdgeStream stream;
  EXPECT_EQ(stream.NumEdgesHint(), 0u);
  uint64_t count = 0;
  ASSERT_TRUE(ForEachEdge(stream, [&](const Edge&) { ++count; }).ok());
  EXPECT_EQ(count, 0u);
}

TEST(BinaryEdgeListTest, Roundtrip) {
  const std::string path = TempPath("roundtrip.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, SampleEdges()).ok());
  auto edges_or = io::ReadEdgeFile(path);
  ASSERT_TRUE(edges_or.ok());
  EXPECT_EQ(*edges_or, SampleEdges());
  std::remove(path.c_str());
}

TEST(BinaryEdgeListTest, EmptyFileRoundtrip) {
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, {}).ok());
  auto edges_or = io::ReadEdgeFile(path);
  ASSERT_TRUE(edges_or.ok());
  EXPECT_TRUE(edges_or->empty());
  std::remove(path.c_str());
}

TEST(BinaryEdgeListTest, MissingFileIsNotFound) {
  auto result = BinaryFileEdgeStream::Open(TempPath("no_such_file.bin"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(BinaryEdgeListTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("truncated.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[5] = {1, 2, 3, 4, 5};
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  auto result = BinaryFileEdgeStream::Open(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryEdgeListTest, ZeroBufferRejected) {
  auto result = BinaryFileEdgeStream::Open(TempPath("x.bin"), 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinaryFileEdgeStreamTest, MatchesInMemoryAcrossBufferSizes) {
  // Many edges so batches straddle buffer boundaries.
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 1000; ++i) {
    edges.push_back(Edge{i, i * 7 + 1});
  }
  const std::string path = TempPath("buffered.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());

  for (const size_t buffer_edges : {1ul, 3ul, 64ul, 1000ul, 5000ul}) {
    auto stream_or = BinaryFileEdgeStream::Open(path, buffer_edges);
    ASSERT_TRUE(stream_or.ok());
    EXPECT_EQ((*stream_or)->NumEdgesHint(), edges.size());
    std::vector<Edge> got;
    ASSERT_TRUE(
        ForEachEdge(**stream_or, [&](const Edge& e) { got.push_back(e); })
            .ok());
    EXPECT_EQ(got, edges) << "buffer_edges=" << buffer_edges;
  }
  std::remove(path.c_str());
}

TEST(BinaryFileEdgeStreamTest, ResetMidStreamRestarts) {
  const std::string path = TempPath("reset.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, SampleEdges()).ok());
  auto stream_or = BinaryFileEdgeStream::Open(path, 2);
  ASSERT_TRUE(stream_or.ok());
  EdgeStream& stream = **stream_or;

  ASSERT_TRUE(stream.Reset().ok());
  Edge buffer[3];
  ASSERT_EQ(stream.Next(buffer, 3), 3u);
  // Restart before exhausting.
  ASSERT_TRUE(stream.Reset().ok());
  std::vector<Edge> got;
  ASSERT_TRUE(
      ForEachEdge(stream, [&](const Edge& e) { got.push_back(e); }).ok());
  EXPECT_EQ(got, SampleEdges());
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, Roundtrip) {
  const std::string path = TempPath("roundtrip.txt");
  ASSERT_TRUE(WriteTextEdgeList(path, SampleEdges()).ok());
  auto edges_or = ReadTextEdgeList(path);
  ASSERT_TRUE(edges_or.ok());
  EXPECT_EQ(*edges_or, SampleEdges());
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, SkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# SNAP-style comment\n% KONECT-style comment\n\n1 2\n  3 4\n",
             f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_TRUE(edges_or.ok());
  EXPECT_EQ(*edges_or, (std::vector<Edge>{{1, 2}, {3, 4}}));
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, MalformedLineIsError) {
  const std::string path = TempPath("malformed.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 2\nhello world\n", f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_FALSE(edges_or.ok());
  EXPECT_EQ(edges_or.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Lines longer than any fixed read buffer stay one line: a long
// comment's tail must not parse as an edge, a long data line is one
// edge, and error messages count physical lines.
TEST(TextEdgeListTest, OverlongCommentYieldsNoEdge) {
  const std::string path = TempPath("long_comment.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string text = "# ";
  text += std::string(4000, 'x');
  text += " 7 9\n1 2\n";
  std::fputs(text.c_str(), f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_TRUE(edges_or.ok()) << edges_or.status();
  EXPECT_EQ(*edges_or, (std::vector<Edge>{{1, 2}}));
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, OverlongDataLineYieldsOneEdge) {
  const std::string path = TempPath("long_data.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Padding between the ids and after them, then the next line.
  std::string text = "5";
  text += std::string(3000, ' ');
  text += "6";
  text += std::string(3000, ' ');
  text += "\n8 9\n";
  std::fputs(text.c_str(), f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_TRUE(edges_or.ok()) << edges_or.status();
  EXPECT_EQ(*edges_or, (std::vector<Edge>{{5, 6}, {8, 9}}));
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, MalformedLineAfterLongLineReportsPhysicalLine) {
  const std::string path = TempPath("long_then_bad.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::string text = "# ";
  text += std::string(1000, 'y');
  text += "\n1 2\nhello\n";
  std::fputs(text.c_str(), f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_FALSE(edges_or.ok());
  EXPECT_EQ(edges_or.status().code(), StatusCode::kIoError);
  EXPECT_NE(edges_or.status().message().find("malformed line 3 "),
            std::string::npos)
      << edges_or.status();
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, OversizedIdIsError) {
  const std::string path = TempPath("oversized.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1 99999999999\n", f);
  std::fclose(f);

  auto edges_or = ReadTextEdgeList(path);
  ASSERT_FALSE(edges_or.ok());
  EXPECT_EQ(edges_or.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(TextEdgeListTest, MissingFileIsNotFound) {
  auto edges_or = ReadTextEdgeList(TempPath("missing.txt"));
  ASSERT_FALSE(edges_or.ok());
  EXPECT_EQ(edges_or.status().code(), StatusCode::kNotFound);
}

TEST(TextEdgeListTest, ReadErrorFailsWithStatus) {
  // A directory opens for reading, but every read of it fails (EISDIR):
  // the reader must report that, not return an empty graph.
  auto edges_or = ReadTextEdgeList(testing::TempDir());
  ASSERT_FALSE(edges_or.ok());
  EXPECT_EQ(edges_or.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace tpsl
