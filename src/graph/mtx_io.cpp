#include "graph/mtx_io.hpp"

#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "graph/builder.hpp"

namespace gga {

namespace {

/** Vertex ids are 32-bit; a larger size line cannot be a graph here. */
constexpr std::uint64_t kMaxVertices = std::numeric_limits<VertexId>::max();

std::string
lower(std::string s)
{
    for (char& c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

} // namespace

CsrGraph
readMatrixMarket(std::istream& in, bool with_weights, bool keep_self_loops)
{
    std::string line;
    if (!std::getline(in, line))
        throw GraphError("empty MatrixMarket stream");

    std::istringstream hdr(line);
    std::string banner, object, format, field, symmetry;
    hdr >> banner >> object >> format >> field >> symmetry;
    if (lower(banner) != "%%matrixmarket")
        throw GraphError("not a MatrixMarket stream: " + line);
    if (lower(object) != "matrix" || lower(format) != "coordinate")
        throw GraphError("only 'matrix coordinate' supported, got: " + line);
    const std::string f = lower(field);
    if (f != "pattern" && f != "real" && f != "integer")
        throw GraphError("unsupported field type: " + field);
    const std::string sym = lower(symmetry);
    if (sym != "general" && sym != "symmetric")
        throw GraphError("unsupported symmetry: " + symmetry);

    // Skip comments and blank lines to the size line.
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '%')
            break;
    }
    std::istringstream size_line(line);
    std::uint64_t rows = 0, cols = 0, nnz = 0;
    size_line >> rows >> cols >> nnz;
    if (rows == 0 || cols == 0 || rows > kMaxVertices)
        throw GraphError("bad MatrixMarket size line: " + line);
    if (rows != cols)
        throw GraphError("adjacency matrix must be square, got " + line);

    GraphBuilder builder(static_cast<VertexId>(rows));
    builder.keepSelfLoops(keep_self_loops);
    std::uint64_t seen = 0;
    while (seen < nnz && std::getline(in, line)) {
        if (line.empty() || line[0] == '%')
            continue;
        std::istringstream row(line);
        std::uint64_t r = 0, c = 0;
        row >> r >> c;
        if (r == 0 || c == 0 || r > rows || c > cols)
            throw GraphError("bad MatrixMarket entry: " + line);
        // Values (real/integer) are ignored; builder symmetrizes anyway.
        builder.addEdge(static_cast<VertexId>(r - 1),
                        static_cast<VertexId>(c - 1));
        ++seen;
    }
    if (seen != nnz)
        throw GraphError("MatrixMarket stream truncated: expected " +
                         std::to_string(nnz) + " entries, got " +
                         std::to_string(seen));
    return builder.build(with_weights);
}

CsrGraph
readMatrixMarketFile(const std::string& path, bool with_weights,
                     bool keep_self_loops)
{
    std::ifstream in(path);
    if (!in)
        throw GraphError("cannot open MatrixMarket file: " + path);
    return readMatrixMarket(in, with_weights, keep_self_loops);
}

void
writeMatrixMarket(std::ostream& out, const CsrGraph& g)
{
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n";
    out << "% written by GGA-Sim\n";
    // Each undirected pair once (v <= u, lower triangle): v == u keeps
    // self-loops in the file — a strict v < u silently dropped them and
    // made the round trip lossy for graphs that carry self-edges.
    std::uint64_t pairs = 0;
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.neighbors(u)) {
            if (v <= u)
                ++pairs;
        }
    }
    out << g.numVertices() << ' ' << g.numVertices() << ' ' << pairs << '\n';
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (VertexId v : g.neighbors(u)) {
            if (v <= u)
                out << (u + 1) << ' ' << (v + 1) << '\n';
        }
    }
}

} // namespace gga
