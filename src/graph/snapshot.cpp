#include "graph/snapshot.hpp"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>

#include "support/rng.hpp"
#include "support/types.hpp"

namespace gga {

namespace {

// The format stores these exact widths; widening either type is a
// layout change and must bump kSnapshotFormatVersion.
static_assert(sizeof(EdgeId) == 4, "snapshot layout assumes 32-bit EdgeId");
static_assert(sizeof(VertexId) == 4,
              "snapshot layout assumes 32-bit VertexId");

constexpr char kMagic[8] = {'G', 'G', 'A', 'C', 'S', 'R', 'B', '\n'};
/** Reads back permuted on a foreign-endian host; loaders reject it. */
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kSnapshotHasWeights = 1u << 0;

struct SnapshotHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint32_t flags;
    std::uint32_t reserved;
    std::uint64_t numVertices;
    std::uint64_t numEdges;
    std::uint64_t checksum;
};
static_assert(sizeof(SnapshotHeader) == 48, "header must be packed");

std::uint64_t
blobChecksum(std::span<const EdgeId> offsets, std::span<const VertexId> cols,
             std::span<const std::uint32_t> weights)
{
    std::uint64_t h = fnv1a(offsets.data(), offsets.size() * sizeof(EdgeId));
    h = fnv1a(cols.data(), cols.size() * sizeof(VertexId), h);
    h = fnv1a(weights.data(), weights.size() * sizeof(std::uint32_t), h);
    return h;
}

/** RAII keeper for an mmap'ed snapshot; the CsrGraph holds it alive. */
struct MappedFile
{
    MappedFile(void* data, std::size_t bytes) : data(data), bytes(bytes) {}
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;
    ~MappedFile() { ::munmap(data, bytes); }

    void* data;
    std::size_t bytes;
};

/** A whole snapshot file in memory, and the block that keeps it alive. */
struct Image
{
    std::span<const unsigned char> bytes;
    std::shared_ptr<const void> storage;
};

/**
 * The bytes of @p path: mapped read-only unless @p mode is Copy, else
 * (or when Auto cannot map the file) read once into the heap. The
 * modes differ only here; parseImage judges every image alike.
 */
Image
readImage(const std::string& path, SnapshotLoadMode mode)
{
    const auto close_file = [](std::FILE* f) { std::fclose(f); };
    const std::unique_ptr<std::FILE, decltype(close_file)> file(
        std::fopen(path.c_str(), "rb"), close_file);
    struct stat st{};
    if (!file || ::fstat(::fileno(file.get()), &st) != 0 ||
        !S_ISREG(st.st_mode))
        throw SnapshotError("cannot open snapshot '" + path + "'");
    const auto size = static_cast<std::size_t>(st.st_size);
    // An empty file cannot be mapped; it reads as a truncated header.
    if (mode != SnapshotLoadMode::Copy && size != 0) {
        void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE,
                           ::fileno(file.get()), 0);
        if (map != MAP_FAILED)
            return {{static_cast<const unsigned char*>(map), size},
                    std::make_shared<MappedFile>(map, size)};
        if (mode == SnapshotLoadMode::Mmap)
            throw SnapshotError("cannot mmap snapshot '" + path + "'");
    }
    auto heap = std::make_shared_for_overwrite<unsigned char[]>(size);
    if (std::fread(heap.get(), 1, size, file.get()) != size)
        throw SnapshotError("cannot read snapshot '" + path + "'");
    return {{heap.get(), size}, std::move(heap)};
}

/**
 * The one snapshot parser: check @p image's header, blob sizes,
 * checksum and CSR structure, and return a graph over its arrays.
 * Every check throws SnapshotError, never a fatal: a stale cache file
 * is user input, and the CsrGraph constructor's checks are fatal.
 */
CsrGraph
parseImage(const Image& image, const std::string& path)
{
    const auto fail = [&path](const std::string& why) {
        return SnapshotError("'" + path + "': " + why);
    };
    SnapshotHeader header{};
    if (image.bytes.size() < sizeof header)
        throw fail("truncated header");
    std::memcpy(&header, image.bytes.data(), sizeof header);
    if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0)
        throw fail("not a GGA CSR snapshot");
    if (header.endian != kEndianTag)
        throw fail("written on a foreign-endian host");
    if (header.version != kSnapshotFormatVersion)
        throw fail("format version " + std::to_string(header.version) +
                   ", this build reads " +
                   std::to_string(kSnapshotFormatVersion));
    if (header.flags & ~kSnapshotHasWeights)
        throw fail("unknown flag bits");
    // The dims size the blobs below; reject sizes the CSR types cannot
    // represent before trusting them.
    if (header.numVertices >= 0xffffffffull ||
        header.numEdges > 0xffffffffull)
        throw fail("dimensions out of range");

    // Every blob is 4-byte aligned: the image starts page- or
    // heap-aligned, the header is 48 bytes, and both element types are
    // 4 bytes wide (static_asserts above).
    const std::size_t v = static_cast<std::size_t>(header.numVertices);
    const std::size_t e = static_cast<std::size_t>(header.numEdges);
    std::size_t at = sizeof header;
    const auto blob = [&](std::size_t count, const char* what) {
        const std::size_t bytes = count * sizeof(std::uint32_t);
        if (image.bytes.size() - at < bytes)
            throw fail(std::string("truncated ") + what + " blob");
        const std::span<const std::uint32_t> out{
            reinterpret_cast<const std::uint32_t*>(image.bytes.data() + at),
            count};
        at += bytes;
        return out;
    };
    const std::span<const EdgeId> offsets = blob(v + 1, "offsets");
    const std::span<const VertexId> cols = blob(e, "targets");
    const std::span<const std::uint32_t> weights =
        blob(header.flags & kSnapshotHasWeights ? e : 0, "weights");
    if (at != image.bytes.size())
        throw fail("trailing bytes after payload");
    if (blobChecksum(offsets, cols, weights) != header.checksum)
        throw fail("content checksum mismatch");
    if (offsets.front() != 0 || offsets.back() != cols.size() ||
        !std::is_sorted(offsets.begin(), offsets.end()))
        throw fail("malformed row offsets");
    for (VertexId t : cols) {
        if (t >= v)
            throw fail("edge target out of range");
    }
    return CsrGraph(offsets, cols, weights, image.storage);
}

} // namespace

std::string
csrSnapshotFileName(const std::string& name, std::int64_t scale_units,
                    std::uint64_t content_hash)
{
    char suffix[64];
    std::snprintf(suffix, sizeof suffix, "_s%lld_%016llx.csrbin",
                  static_cast<long long>(scale_units),
                  static_cast<unsigned long long>(content_hash));
    return name + suffix;
}

void
saveCsrSnapshot(const std::string& path, const CsrGraph& g)
{
    SnapshotHeader header{};
    std::memcpy(header.magic, kMagic, sizeof kMagic);
    header.version = kSnapshotFormatVersion;
    header.endian = kEndianTag;
    header.flags = g.hasWeights() ? kSnapshotHasWeights : 0;
    header.numVertices = g.numVertices();
    header.numEdges = g.numEdges();
    header.checksum =
        blobChecksum(g.rowOffsets(), g.colIndices(), g.weights());

    // Temp file + rename: a crashed writer can leave a stale .tmp
    // around, but never a torn .csrbin under the final name. The pid
    // suffix keeps concurrent workers sharing one cache directory from
    // clobbering each other's in-flight writes.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            throw SnapshotError("cannot open '" + tmp + "' for writing");
        const auto put = [&out](const void* data, std::size_t bytes) {
            out.write(static_cast<const char*>(data),
                      static_cast<std::streamsize>(bytes));
        };
        put(&header, sizeof header);
        put(g.rowOffsets().data(), g.rowOffsets().size() * sizeof(EdgeId));
        put(g.colIndices().data(),
            g.colIndices().size() * sizeof(VertexId));
        put(g.weights().data(), g.weights().size() * sizeof(std::uint32_t));
        out.flush();
        if (!out) {
            std::remove(tmp.c_str());
            throw SnapshotError("short write to '" + tmp + "'");
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw SnapshotError("cannot rename '" + tmp + "' to '" + path +
                            "'");
    }
}

CsrGraph
loadCsrSnapshot(const std::string& path, SnapshotLoadMode mode)
{
    return parseImage(readImage(path, mode), path);
}

} // namespace gga
