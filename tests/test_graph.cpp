/**
 * @file
 * Unit tests for the graph substrate: builder canonicalization (both
 * construction paths), CSR invariants, degree statistics, MatrixMarket
 * IO, binary snapshot round trips.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/degree_stats.hpp"
#include "graph/generator.hpp"
#include "graph/mtx_io.hpp"
#include "graph/presets.hpp"
#include "graph/snapshot.hpp"
#include "reference/graph.hpp"
#include "reference/rng.hpp"
#include "support/rng.hpp"

namespace gga {
namespace {

/** Materialize a CSR span accessor for gtest's container EXPECT_EQ. */
template <typename T>
std::vector<T>
toVec(std::span<const T> s)
{
    return {s.begin(), s.end()};
}

TEST(GraphBuilder, SymmetrizesAndDedupes)
{
    GraphBuilder b(4);
    b.addEdge(0, 1);
    b.addEdge(0, 1); // duplicate
    b.addEdge(1, 0); // reverse of an existing pair
    b.addEdge(2, 3);
    const CsrGraph g = b.build();
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u); // pairs {0,1} and {2,3}, both directions
    EXPECT_TRUE(g.isSymmetric());
}

TEST(GraphBuilder, RemovesSelfLoops)
{
    GraphBuilder b(3);
    b.addEdge(0, 0);
    b.addEdge(1, 2);
    const CsrGraph g = b.build();
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_TRUE(g.hasNoSelfLoops());
}

TEST(GraphBuilder, SortedAdjacency)
{
    GraphBuilder b(5);
    b.addEdge(0, 4);
    b.addEdge(0, 2);
    b.addEdge(0, 3);
    const CsrGraph g = b.build();
    const auto nb = g.neighbors(0);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
}

TEST(GraphBuilder, WeightsSymmetricAndInRange)
{
    GraphBuilder b(6);
    for (VertexId v = 1; v < 6; ++v)
        b.addEdge(0, v);
    const CsrGraph g = b.build(/*with_weights=*/true);
    ASSERT_TRUE(g.hasWeights());
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (EdgeId e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
            const std::uint32_t w = g.edgeWeight(e);
            EXPECT_GE(w, 1u);
            EXPECT_LE(w, 31u);
            EXPECT_EQ(w, pairWeight(u, g.edgeTarget(e)));
            EXPECT_EQ(w, pairWeight(g.edgeTarget(e), u));
        }
    }
}

/**
 * A messy random multigraph — duplicates, reverses, self-loops, hubs —
 * for exercising both builder paths over identical input.
 */
GraphBuilder
messyBuilder(VertexId n, std::size_t raw_edges, std::uint64_t seed)
{
    GraphBuilder b(n);
    Xoshiro256StarStar rng(seed);
    for (std::size_t i = 0; i < raw_edges; ++i) {
        // A skewed source distribution makes a few hub rows, so the
        // parallel per-row phases see imbalanced work.
        const auto u = static_cast<VertexId>(
            rng.nextBounded((rng.next() & 3) ? n : n / 16 + 1));
        const auto v = static_cast<VertexId>(rng.nextBounded(n));
        b.addEdge(u, v);
        if ((rng.next() & 7) == 0)
            b.addEdge(u, v); // duplicate
        if ((rng.next() & 7) == 1)
            b.addEdge(v, u); // explicit reverse
        if ((rng.next() & 15) == 2)
            b.addEdge(u, u); // self-loop
    }
    return b;
}

TEST(GraphBuilder, CountingBuildMatchesReferenceSortAtAnyThreadCount)
{
    // ~79k raw edges: large enough that the builder really fans out
    // (its minimum slice is ~16k raw edges per worker). Both builds drop
    // the messy builder's self-loops.
    for (const bool with_weights : {false, true}) {
        GraphBuilder b = messyBuilder(997, 60000, 42);
        const CsrGraph reference = buildReferenceSort(b, with_weights);
        EXPECT_TRUE(reference.hasNoSelfLoops());
        for (const unsigned threads : {1u, 2u, 3u, 8u}) {
            b.threads(threads);
            EXPECT_EQ(b.build(with_weights), reference)
                << "threads=" << threads << " weights=" << with_weights;
        }
    }
}

TEST(GraphBuilder, CountingBuildHandlesDegenerateShapes)
{
    // All edges in one row (a single scatter target) and an empty
    // builder both go through the counting path's boundary arithmetic.
    GraphBuilder star(64);
    for (VertexId v = 1; v < 64; ++v)
        star.addEdge(0, v);
    star.threads(4);
    EXPECT_EQ(star.build(true), buildReferenceSort(star, true));

    GraphBuilder empty(8);
    empty.threads(4);
    EXPECT_EQ(empty.build(), buildReferenceSort(empty, false));
    EXPECT_EQ(empty.build().numEdges(), 0u);
}

/** FNV-1a chained over offsets, targets, weights: the snapshot checksum. */
std::uint64_t
csrHash(const CsrGraph& g)
{
    const auto offsets = g.rowOffsets();
    const auto cols = g.colIndices();
    const auto weights = g.weights();
    std::uint64_t h = fnv1a(offsets.data(), offsets.size_bytes());
    h = fnv1a(cols.data(), cols.size_bytes(), h);
    return fnv1a(weights.data(), weights.size_bytes(), h);
}

TEST(GeneratorReference, V1OutputIsFrozen)
{
    // The v1 baseline shares its draw helpers with generateGraph, so a
    // v2 edit there would silently move the speedup baseline. These
    // hashes pin its output at any build-thread count. AMZ..RAJ are
    // LogNormal/PowerLaw degree-driven, WNG is Grid2d.
    const std::pair<GraphPreset, std::uint64_t> golden[] = {
        {GraphPreset::Amz, 0x28478e5293133181ull},
        {GraphPreset::Dct, 0x799ed975dc4de61full},
        {GraphPreset::Eml, 0xdf6a65c4f9cac357ull},
        {GraphPreset::Ols, 0x3adcd5802309a127ull},
        {GraphPreset::Raj, 0xe9813267b6306df6ull},
        {GraphPreset::Wng, 0x40e42667ecd5f779ull},
    };
    for (const auto& [preset, hash] : golden) {
        for (const unsigned threads : {1u, 4u}) {
            const CsrGraph g =
                generateGraphReference(presetSpecScaled(preset, 0.1), threads);
            EXPECT_EQ(csrHash(g), hash)
                << presetName(preset) << " threads=" << threads;
        }
    }
}

TEST(Generator, V2OutputIsPinned)
{
    // What generateGraph draws for every preset at scale 0.1, at any
    // build-thread count. A change that moves these values must bump
    // kGeneratorVersion in the same commit: the bump re-addresses every
    // .csrbin snapshot, so no stale graph is loaded under the new code.
    const std::pair<GraphPreset, std::uint64_t> golden[] = {
        {GraphPreset::Amz, 0xbfab771f6f94de25ull},
        {GraphPreset::Dct, 0xb648770afad3746eull},
        {GraphPreset::Eml, 0x9bbf877876ead53bull},
        {GraphPreset::Ols, 0x482b4e515084a25aull},
        {GraphPreset::Raj, 0x0e82ad39cf89f607ull},
        {GraphPreset::Wng, 0x06924eae87c975f1ull},
    };
    for (const auto& [preset, hash] : golden) {
        for (const unsigned threads : {1u, 4u}) {
            const CsrGraph g =
                generateGraph(presetSpecScaled(preset, 0.1), threads);
            EXPECT_EQ(csrHash(g), hash)
                << presetName(preset) << " threads=" << threads;
        }
    }
}

TEST(CsrGraph, DegreesAndAccessors)
{
    GraphBuilder b(4);
    b.addUndirected(0, 1);
    b.addUndirected(0, 2);
    b.addUndirected(0, 3);
    const CsrGraph g = b.build();
    EXPECT_EQ(g.degree(0), 3u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_DOUBLE_EQ(g.avgDegree(), 6.0 / 4.0);
    EXPECT_EQ(g.edgeEnd(0) - g.edgeBegin(0), 3u);
}

TEST(CsrGraphCopy, CopiesShareTheirArrays)
{
    const CsrGraph g = messyBuilder(57, 400, 3).build(true);
    const CsrGraph copy = g;
    EXPECT_EQ(copy.rowOffsets().data(), g.rowOffsets().data());
    EXPECT_EQ(copy.colIndices().data(), g.colIndices().data());
    EXPECT_EQ(copy.weights().data(), g.weights().data());

    // A copy keeps the arrays alive after the original is gone.
    auto original = std::make_unique<CsrGraph>(g);
    const CsrGraph survivor = *original;
    original.reset();
    EXPECT_EQ(survivor, g);

    // The empty graph still has one row offset.
    const CsrGraph empty;
    EXPECT_EQ(empty.numVertices(), 0u);
    EXPECT_EQ(toVec(empty.rowOffsets()), std::vector<EdgeId>{0});
}

TEST(DegreeStats, StarGraph)
{
    GraphBuilder b(5);
    for (VertexId v = 1; v < 5; ++v)
        b.addEdge(0, v);
    const CsrGraph g = b.build();
    const DegreeStats s = computeDegreeStats(g);
    EXPECT_EQ(s.maxDegree, 4u);
    EXPECT_DOUBLE_EQ(s.avgDegree, 8.0 / 5.0);
    EXPECT_GT(s.stddevDegree, 1.0);
}

TEST(MtxIo, ParsesGeneralPattern)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "% comment line\n"
        "3 3 2\n"
        "1 2\n"
        "3 1\n");
    const CsrGraph g = readMatrixMarket(in);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(g.numEdges(), 4u); // symmetrized
    EXPECT_TRUE(g.isSymmetric());
}

TEST(MtxIo, ParsesSymmetricRealAndIgnoresValues)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "4 4 3\n"
        "2 1 0.5\n"
        "3 3 1.0\n" // self loop -> dropped
        "4 2 2.5\n");
    const CsrGraph g = readMatrixMarket(in);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_TRUE(g.hasNoSelfLoops());
}

TEST(MtxIo, MalformedOrMissingInputThrows)
{
    const char* const bad[] = {
        "",
        "%%NotMatrixMarket matrix coordinate pattern general\n1 1 0\n",
        "%%MatrixMarket matrix array real general\n1 1\n",
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
        "%%MatrixMarket matrix coordinate pattern hermitian\n1 1 0\n",
        "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 3 0\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "4294967296 4294967296 0\n", // more vertices than ids
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n",
        // Shapes a lenient parse would read as a graph.
        "%%MatrixMarket matrix coordinate pattern general\n5 5\n1 2\n2 3\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 2\n1 2xyz\n2 3.9\n",
        "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2 7 8\n",
        "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n+1 2\n",
        "%%MatrixMarket matrix coordinate pattern general\n3 3 1 9\n1 2\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 1\n1 2\n2 3\n", // an entry past nnz
        "%%MatrixMarket matrix coordinate pattern general extra\n"
        "3 3 1\n1 2\n",
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2\n",
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 2 abc\n",
    };
    for (const char* text : bad) {
        std::istringstream in(text);
        EXPECT_THROW(readMatrixMarket(in), GraphError) << text;
    }
    EXPECT_THROW(readMatrixMarketFile("no/such/input.mtx"), GraphError);
}

TEST(MtxIo, AcceptsTabsAndCrlfLineEnds)
{
    std::istringstream in(
        "%%MatrixMarket\tmatrix coordinate real general\r\n"
        "% comment line\r\n"
        "3\t3 2\r\n"
        "1\t2\t0.5\r\n"
        "3 1\t-2e1 \r\n"
        "\r\n");
    const CsrGraph g = readMatrixMarket(in);
    EXPECT_EQ(g.numVertices(), 3u);
    EXPECT_EQ(toVec(g.rowOffsets()), (std::vector<EdgeId>{0, 2, 3, 4}));
    EXPECT_EQ(toVec(g.colIndices()), (std::vector<VertexId>{1, 2, 0, 0}));
}

TEST(MtxIo, RoundTrips)
{
    GraphBuilder b(6);
    b.addUndirected(0, 1);
    b.addUndirected(2, 5);
    b.addUndirected(3, 4);
    const CsrGraph g = b.build();

    std::ostringstream out;
    writeMatrixMarket(out, g);
    std::istringstream in(out.str());
    const CsrGraph g2 = readMatrixMarket(in);
    EXPECT_EQ(g2.numVertices(), g.numVertices());
    EXPECT_EQ(g2.numEdges(), g.numEdges());
    EXPECT_EQ(toVec(g2.rowOffsets()), toVec(g.rowOffsets()));
    EXPECT_EQ(toVec(g2.colIndices()), toVec(g.colIndices()));
}

TEST(MtxIo, RoundTripsGraphWithSelfLoops)
{
    // Edges 0-1 and 1-2 plus self-loops on 0 and 3. The writer emits
    // v <= u pairs, so each loop appears once (a strict v < u would drop
    // the diagonal).
    std::vector<VertexId> cols = {0, 1, 0, 2, 1, 3};
    std::vector<EdgeId> offsets = {0, 2, 4, 5, 6};
    std::vector<std::uint32_t> weights;
    for (VertexId u = 0; u < 4; ++u) {
        for (EdgeId e = offsets[u]; e < offsets[u + 1]; ++e)
            weights.push_back(pairWeight(u, cols[e]));
    }
    const CsrGraph g(std::move(offsets), std::move(cols), std::move(weights));
    std::ostringstream out;
    writeMatrixMarket(out, g);
    EXPECT_EQ(out.str(), "%%MatrixMarket matrix coordinate pattern symmetric\n"
                         "% written by GGA-Sim\n"
                         "4 4 4\n1 1\n2 1\n3 2\n4 4\n");

    // Reading it back canonicalizes (paper Sec. V-A): the loops are
    // dropped, and every other edge keeps its target and weight.
    std::istringstream in(out.str());
    const CsrGraph canon = readMatrixMarket(in, /*with_weights=*/true);
    EXPECT_EQ(toVec(canon.rowOffsets()), (std::vector<EdgeId>{0, 1, 3, 4, 4}));
    EdgeId kept = 0;
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (EdgeId e = g.edgeBegin(u); e < g.edgeEnd(u); ++e) {
            if (g.edgeTarget(e) == u)
                continue;
            EXPECT_EQ(canon.edgeTarget(kept), g.edgeTarget(e)) << e;
            EXPECT_EQ(canon.edgeWeight(kept), g.edgeWeight(e)) << e;
            ++kept;
        }
    }
    EXPECT_EQ(kept, canon.numEdges());
}

// --- binary CSR snapshots -------------------------------------------------

class CsrSnapshot : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        path_ = testing::TempDir() + "gga_snapshot_test.csrbin";
        std::remove(path_.c_str());
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(CsrSnapshot, RoundTripsExactly)
{
    const CsrGraph g = messyBuilder(257, 4000, 7).build(true);
    saveCsrSnapshot(path_, g);
    EXPECT_EQ(loadCsrSnapshot(path_), g);

    // Weightless graphs round-trip too (the flag bit, not a zero blob).
    const CsrGraph bare = messyBuilder(57, 400, 8).build(false);
    saveCsrSnapshot(path_, bare);
    const CsrGraph loaded = loadCsrSnapshot(path_);
    EXPECT_EQ(loaded, bare);
    EXPECT_FALSE(loaded.hasWeights());
}

TEST_F(CsrSnapshot, RejectsMissingTruncatedAndTrailing)
{
    EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError) << "missing file";

    const CsrGraph g = messyBuilder(257, 4000, 9).build(true);
    saveCsrSnapshot(path_, g);
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    const auto full_size = static_cast<std::size_t>(in.tellg());
    in.close();
    for (const std::size_t keep :
         {std::size_t{10}, std::size_t{100}, full_size - 1}) {
        std::filesystem::resize_file(path_, keep);
        EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError)
            << "truncated to " << keep << " bytes";
    }

    saveCsrSnapshot(path_, g);
    std::ofstream(path_, std::ios::binary | std::ios::app) << "junk";
    EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError) << "trailing bytes";
}

TEST_F(CsrSnapshot, RejectsBitFlipsAnywhereInThePayload)
{
    const CsrGraph g = messyBuilder(257, 4000, 10).build(true);
    saveCsrSnapshot(path_, g);
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    const auto size = static_cast<std::size_t>(in.tellg());
    in.close();
    for (const double frac : {0.3, 0.6, 0.95}) {
        const auto pos =
            static_cast<std::streamoff>(48 + (size - 48) * frac);
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(pos);
        const char byte = static_cast<char>(f.get() ^ 0x20);
        f.seekp(pos);
        f.put(byte);
        f.close();
        EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError)
            << "flip at offset " << pos;
        saveCsrSnapshot(path_, g); // restore for the next round
    }
}

TEST_F(CsrSnapshot, RejectsForeignFilesAndVersions)
{
    std::ofstream(path_, std::ios::binary)
        << "%%MatrixMarket matrix coordinate pattern general\n1 1 0\n";
    EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError);

    // A future format version must be refused, not misparsed.
    const CsrGraph g = messyBuilder(57, 400, 11).build(true);
    saveCsrSnapshot(path_, g);
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8); // the version field follows the 8-byte magic
    const std::uint32_t future = kSnapshotFormatVersion + 1;
    f.write(reinterpret_cast<const char*>(&future), sizeof future);
    f.close();
    EXPECT_THROW(loadCsrSnapshot(path_), SnapshotError);
}

TEST_F(CsrSnapshot, MmapLoadIsByteIdenticalToCopyLoad)
{
    const CsrGraph g = messyBuilder(257, 4000, 12).build(true);
    saveCsrSnapshot(path_, g);
    const CsrGraph copied = loadCsrSnapshot(path_, SnapshotLoadMode::Copy);
    const CsrGraph mapped = loadCsrSnapshot(path_, SnapshotLoadMode::Mmap);
    const CsrGraph autod = loadCsrSnapshot(path_); // Auto defaults to mmap
    EXPECT_EQ(copied, g);
    EXPECT_EQ(mapped, g);
    EXPECT_EQ(autod, g);
    EXPECT_EQ(toVec(mapped.rowOffsets()), toVec(copied.rowOffsets()));
    EXPECT_EQ(toVec(mapped.colIndices()), toVec(copied.colIndices()));
    EXPECT_EQ(toVec(mapped.weights()), toVec(copied.weights()));

    // Weightless snapshots map too (no weights blob, empty span).
    const CsrGraph bare = messyBuilder(57, 400, 13).build(false);
    saveCsrSnapshot(path_, bare);
    const CsrGraph bare_mapped =
        loadCsrSnapshot(path_, SnapshotLoadMode::Mmap);
    EXPECT_EQ(bare_mapped, bare);
    EXPECT_FALSE(bare_mapped.hasWeights());
}

TEST_F(CsrSnapshot, MmapRejectsCorruptionLikeTheCopyPath)
{
    const CsrGraph g = messyBuilder(257, 4000, 14).build(true);
    saveCsrSnapshot(path_, g);
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    const auto full_size = static_cast<std::size_t>(in.tellg());
    in.close();

    // Both modes reject each corruption, with the same text: one parser
    // judges the image whichever way it was read.
    const auto expectSameRejection = [this](const std::string& what) {
        std::string texts[2];
        const SnapshotLoadMode modes[2] = {SnapshotLoadMode::Mmap,
                                           SnapshotLoadMode::Copy};
        for (int i = 0; i < 2; ++i) {
            try {
                loadCsrSnapshot(path_, modes[i]);
                ADD_FAILURE() << what << ": mode " << i << " loaded";
            } catch (const SnapshotError& err) {
                texts[i] = err.what();
            }
        }
        EXPECT_FALSE(texts[0].empty()) << what;
        EXPECT_EQ(texts[0], texts[1]) << what;
    };

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{10}, std::size_t{100},
          full_size - 4}) {
        std::filesystem::resize_file(path_, keep);
        expectSameRejection("truncated to " + std::to_string(keep));
    }

    saveCsrSnapshot(path_, g);
    std::ofstream(path_, std::ios::binary | std::ios::app) << "junk";
    expectSameRejection("trailing bytes");

    saveCsrSnapshot(path_, g);
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(full_size / 2));
    f.put('\x7f');
    f.close();
    expectSameRejection("bit flip");

    // A missing file: Mmap mode refuses, Auto falls back to the copy
    // path and reports its error.
    std::remove(path_.c_str());
    EXPECT_THROW(loadCsrSnapshot(path_, SnapshotLoadMode::Mmap),
                 SnapshotError);
    EXPECT_THROW(loadCsrSnapshot(path_, SnapshotLoadMode::Auto),
                 SnapshotError);
}

TEST_F(CsrSnapshot, MappedGraphOutlivesTheSnapshotFile)
{
    // The mapping, not the file name, keeps the pages alive: a cache
    // eviction (unlink) under a resident graph must not invalidate it.
    const CsrGraph g = messyBuilder(257, 4000, 15).build(true);
    saveCsrSnapshot(path_, g);
    const CsrGraph mapped = loadCsrSnapshot(path_, SnapshotLoadMode::Mmap);
    ASSERT_EQ(std::remove(path_.c_str()), 0);
    EXPECT_EQ(mapped, g);

    // Copies of a mapped graph share the mapping and stay valid after
    // the original goes away.
    auto copy = std::make_unique<CsrGraph>(mapped);
    const CsrGraph moved = [&] {
        CsrGraph tmp = *copy;
        copy.reset();
        return tmp;
    }();
    EXPECT_EQ(moved, g);
}

TEST(CsrSnapshotName, IsContentAddressed)
{
    EXPECT_EQ(csrSnapshotFileName("AMZ", 1000000, 0x1234abcdu),
              "AMZ_s1000000_000000001234abcd.csrbin");
    EXPECT_NE(csrSnapshotFileName("AMZ", 1000000, 1),
              csrSnapshotFileName("AMZ", 1000000, 2));
    EXPECT_NE(csrSnapshotFileName("AMZ", 500000, 1),
              csrSnapshotFileName("AMZ", 1000000, 1));
}

} // namespace
} // namespace gga
