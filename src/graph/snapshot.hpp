/**
 * @file
 * Versioned binary CSR snapshots (".csrbin") — the on-disk cache format
 * that lets sharded evaluation workers load prebuilt input graphs
 * instead of re-synthesizing them at every cold start.
 *
 * Layout (native little-endian, fixed-width fields):
 *
 *   [SnapshotHeader]  magic, format version, endian tag, flags,
 *                     |V|, |E|, content checksum
 *   [offsets blob]    (|V|+1) x EdgeId
 *   [targets blob]    |E| x VertexId
 *   [weights blob]    |E| x uint32 (present iff kSnapshotHasWeights)
 *
 * The checksum is FNV-1a over the three blobs in file order, so any
 * truncation or corruption is rejected loudly (SnapshotError) and the
 * caller falls back to synthesis. Load never aborts the process: every
 * validation failure is an exception, because a stale cache file is user
 * input, not a programming error.
 *
 * Writers go through a temp file + rename so concurrent workers sharing
 * one cache directory never observe a half-written snapshot.
 */

#ifndef GGA_GRAPH_SNAPSHOT_HPP
#define GGA_GRAPH_SNAPSHOT_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/csr.hpp"

namespace gga {

/** Thrown on unreadable/corrupt/foreign snapshot files and save I/O
 *  failures. An exception, not a fatal: callers fall back to synthesis. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string& why) : std::runtime_error(why)
    {
    }
};

/** Bump on any layout change; loaders reject other versions. */
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/**
 * Write @p g to @p path atomically (temp file + rename). Throws
 * SnapshotError on I/O failure; on success the file round-trips through
 * loadCsrSnapshot to a graph that compares equal to @p g.
 */
void saveCsrSnapshot(const std::string& path, const CsrGraph& g);

/** How loadCsrSnapshot gets a file's bytes; one parser checks them all. */
enum class SnapshotLoadMode
{
    /** mmap when the filesystem supports it, else Copy. */
    Auto,
    /** Zero-copy: the graph's arrays live in the mapping (fails if mmap
     *  does). */
    Mmap,
    /** Read the whole file once into a heap image. */
    Copy,
};

/**
 * Load a snapshot written by saveCsrSnapshot. Throws SnapshotError on a
 * missing file, bad magic/version/endianness, truncated or oversized
 * payload, checksum mismatch, or malformed CSR arrays — never a fatal,
 * so callers can fall back to building from scratch.
 *
 * Every mode yields the same image of the file, and one parser checks
 * it — the checksum covers every byte — and returns a graph whose
 * arrays live in that image, with the same error text in every mode.
 * The default Auto mode maps the file read-only and falls back to Copy
 * on filesystems where mmap fails. The image (not the file name) is held
 * alive by the graph, so deleting the snapshot after a load is safe.
 */
CsrGraph loadCsrSnapshot(const std::string& path,
                         SnapshotLoadMode mode = SnapshotLoadMode::Auto);

/**
 * Canonical cache-file name for a graph identified by @p name (preset
 * name, "AMZ"), @p scale_units (GraphStore micro-units, 1000000 = full
 * scale), and @p content_hash (specContentHash of the generating spec):
 * "AMZ_s1000000_<hash hex>.csrbin". Content-addressed: a generator or
 * spec change produces a different hash, orphaning stale files instead
 * of loading them.
 */
std::string csrSnapshotFileName(const std::string& name,
                                std::int64_t scale_units,
                                std::uint64_t content_hash);

} // namespace gga

#endif // GGA_GRAPH_SNAPSHOT_HPP
