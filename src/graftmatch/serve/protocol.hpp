// Wire protocol of the matching service: length-prefixed key=value
// frames.
//
// One request or response is a single frame: a 4-byte little-endian
// payload length followed by the payload, which is newline-separated
// `key=value` lines (values may contain '='; they may not contain
// newlines). The format is deliberately trivial: `printf '...' | socat
// - UNIX:/path` can drive a server, every field is inspectable in a
// hexdump, and adding a field never breaks an old peer (unknown keys
// are skipped, missing keys keep their defaults).
//
// String hygiene: request string fields (graph, solver, init, reduce,
// kernel) are lookup keys, so control characters in them are
// REJECTED at both encode time (std::invalid_argument) and decode time
// (error return) rather than silently rewritten -- a graph named "a\nb"
// must fail loudly, not be looked up as "a b" and misreported as unknown
// under the mangled name. Response-side free text (the error message)
// is server-generated diagnostics; there newlines/CRs are replaced with
// spaces so a multi-line exception message cannot corrupt the framing.
//
// Doubles (the `seconds` field) are encoded with std::to_chars shortest
// round-trip form and decoded with the strict locale-independent parser
// from runtime/cli.hpp, so the value a client reads is bit-for-bit the
// value the server measured regardless of either side's locale.
//
// The same encode/decode pair backs the Unix-domain-socket front end
// (serve/uds.hpp) and the protocol tests (which run it over a
// socketpair without any server).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace graftmatch::serve {

/// One matching request. `graph` names a roster entry; the rest select
/// how to solve it (registry keys and engine modes, all validated
/// server-side so a bad request yields an error response, not a crash).
struct MatchRequest {
  std::string graph;
  std::string solver = "graft";
  std::string initializer = "ks";
  /// Cap on this request's solver width; <= 0 uses the server's
  /// configured per-request default. The server clamps the cap to
  /// [1, omp_get_num_procs()] and the solve runs solve_width() wide
  /// under it; a wire value outside `int` range is a decode error.
  int threads = 0;
  std::string reduce = "none";  ///< ReduceMode key (run_stats.hpp)
  std::string kernel = "bit";    ///< BottomUpKernel key
  /// Relative deadline in milliseconds from admission; <= 0 = none.
  /// Enforced twice: at admission (rejected when the queue backlog
  /// already implies a miss) and at dispatch (a queued request whose
  /// deadline passed gets a `deadline exceeded` response instead of a
  /// solve). Deadlines too far out for the clock saturate to "never".
  std::int64_t deadline_ms = 0;
};

struct MatchResponse {
  bool ok = false;
  std::string error;  ///< set when !ok (unknown graph/solver, audit fail)
  /// True when the request was turned away by admission control (queue
  /// full, or a deadline the backlog already made unmeetable); the
  /// client may retry, nothing was solved.
  bool rejected = false;
  /// True when the request was accepted but its deadline passed before
  /// a worker dispatched it; nothing was solved.
  bool expired = false;
  std::string graph;
  std::string solver;
  std::string initializer;
  std::int64_t cardinality = 0;  ///< matched cardinality this run found
  std::int64_t maximum = 0;      ///< roster oracle (load-time Hopcroft-Karp)
  double seconds = 0.0;          ///< solver wall time, server-side
  std::uint64_t session = 0;     ///< id of the session that served it
  int threads = 0;  ///< solver width actually used (RunStats::threads_used)
  /// Number of requests this response's solve answered, requests that
  /// joined it while it ran included (1 = served alone).
  int batch = 1;
};

/// True when `value` may travel as a request lookup key: non-empty
/// fields must be free of ASCII control characters (0x00-0x1f, 0x7f).
bool is_clean_field(std::string_view value) noexcept;

/// Encodes a request payload. Throws std::invalid_argument when any
/// string field contains a control character (see is_clean_field) --
/// mangling a lookup key would change what the server looks up.
std::string encode_request(const MatchRequest& request);
bool decode_request(const std::string& payload, MatchRequest& request,
                    std::string& error);

std::string encode_response(const MatchResponse& response);
bool decode_response(const std::string& payload, MatchResponse& response,
                     std::string& error);

/// Frame cap: a request/response is a handful of short lines, so
/// anything near this is a corrupt or hostile peer.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/// Blocking frame I/O on a connected stream socket (UDS or socketpair).
/// write_frame returns false on any short write / peer reset;
/// read_frame returns false on clean EOF, error, or an oversized
/// length prefix. Both retry EINTR.
bool write_frame(int fd, const std::string& payload);
bool read_frame(int fd, std::string& payload);

}  // namespace graftmatch::serve
