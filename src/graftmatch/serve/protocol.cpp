#include "graftmatch/serve/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graftmatch/runtime/cli.hpp"

namespace graftmatch::serve {
namespace {

// Response-side diagnostics only (the error message): newlines delimit
// fields, so they must not appear in a value, and spaces keep a
// multi-line exception message readable instead of truncating it.
// Request lookup keys are never sanitized -- they are rejected instead
// (see is_clean_field), because a silently rewritten key changes what
// the server looks up.
std::string sanitize(std::string value) {
  for (char& c : value) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return value;
}

void put(std::ostringstream& out, const char* key, const std::string& value) {
  out << key << '=' << sanitize(value) << '\n';
}

void put(std::ostringstream& out, const char* key, std::int64_t value) {
  out << key << '=' << value << '\n';
}

// Shortest round-trip form (std::to_chars default): the decoded double
// is bit-for-bit the encoded one, unlike ostream's 6-significant-digit
// default, and the spelling is locale-independent.
void put(std::ostringstream& out, const char* key, double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec == std::errc{}) {
    out << key << '='
        << std::string_view(buffer, static_cast<std::size_t>(ptr - buffer))
        << '\n';
  } else {
    out << key << '=' << 0.0 << '\n';  // unreachable for finite doubles
  }
}

/// A request string field travels verbatim or not at all.
void put_field(std::ostringstream& out, const char* key,
               const std::string& value) {
  if (!is_clean_field(value)) {
    throw std::invalid_argument(std::string("request field \"") + key +
                                "\" contains a control character");
  }
  out << key << '=' << value << '\n';
}

bool parse_int(const std::string& value, std::int64_t& out) {
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

// Strict, locale-independent, whole-token parse (runtime/cli.hpp) --
// std::stod honors the process locale, so a comma-decimal locale would
// mis-read or reject the peer's "0.125".
bool parse_double(const std::string& value, double& out) {
  const auto parsed =
      cli::try_parse_double(value, std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::max());
  if (!parsed) return false;
  out = *parsed;
  return true;
}

bool parse_bool(const std::string& value, bool& out) {
  if (value == "1" || value == "true") {
    out = true;
    return true;
  }
  if (value == "0" || value == "false") {
    out = false;
    return true;
  }
  return false;
}

// Walks `payload` line by line and hands each key/value pair to
// `field`, which returns false on a malformed value for a known key.
// Unknown keys are skipped so old peers tolerate new fields.
template <typename FieldFn>
bool for_each_field(const std::string& payload, FieldFn&& field,
                    std::string& error) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t end = payload.find('\n', pos);
    if (end == std::string::npos) end = payload.size();
    const std::string_view line(payload.data() + pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      error = "malformed line (no '='): " + std::string(line);
      return false;
    }
    const std::string key(line.substr(0, eq));
    const std::string value(line.substr(eq + 1));
    if (!field(key, value)) {
      error = "bad value for \"" + key + "\": " + value;
      return false;
    }
  }
  return true;
}

}  // namespace

bool is_clean_field(std::string_view value) noexcept {
  for (const char c : value) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) return false;
  }
  return true;
}

std::string encode_request(const MatchRequest& request) {
  std::ostringstream out;
  put_field(out, "graph", request.graph);
  put_field(out, "solver", request.solver);
  put_field(out, "init", request.initializer);
  put(out, "threads", static_cast<std::int64_t>(request.threads));
  put_field(out, "reduce", request.reduce);
  put_field(out, "kernel", request.kernel);
  if (request.deadline_ms > 0) put(out, "deadline_ms", request.deadline_ms);
  return out.str();
}

bool decode_request(const std::string& payload, MatchRequest& request,
                    std::string& error) {
  request = MatchRequest{};
  const bool parsed = for_each_field(
      payload,
      [&](const std::string& key, const std::string& value) {
        if (key == "graph") {
          if (!is_clean_field(value)) return false;
          request.graph = value;
        } else if (key == "solver") {
          if (!is_clean_field(value)) return false;
          request.solver = value;
        } else if (key == "init") {
          if (!is_clean_field(value)) return false;
          request.initializer = value;
        } else if (key == "threads") {
          std::int64_t threads = 0;
          if (!parse_int(value, threads) ||
              threads < std::numeric_limits<int>::min() ||
              threads > std::numeric_limits<int>::max()) {
            return false;
          }
          request.threads = static_cast<int>(threads);
        } else if (key == "reduce") {
          if (!is_clean_field(value)) return false;
          request.reduce = value;
        } else if (key == "kernel") {
          if (!is_clean_field(value)) return false;
          request.kernel = value;
        } else if (key == "deadline_ms") {
          if (!parse_int(value, request.deadline_ms)) return false;
        }
        return true;
      },
      error);
  if (!parsed) return false;
  if (request.graph.empty()) {
    error = "request is missing required field \"graph\"";
    return false;
  }
  return true;
}

std::string encode_response(const MatchResponse& response) {
  std::ostringstream out;
  put(out, "ok", static_cast<std::int64_t>(response.ok ? 1 : 0));
  if (!response.error.empty()) put(out, "error", response.error);
  if (response.rejected) put(out, "rejected", std::int64_t{1});
  if (response.expired) put(out, "expired", std::int64_t{1});
  put(out, "graph", response.graph);
  put(out, "solver", response.solver);
  put(out, "init", response.initializer);
  put(out, "cardinality", response.cardinality);
  put(out, "maximum", response.maximum);
  put(out, "seconds", response.seconds);
  put(out, "session", static_cast<std::int64_t>(response.session));
  put(out, "threads", static_cast<std::int64_t>(response.threads));
  put(out, "batch", static_cast<std::int64_t>(response.batch));
  return out.str();
}

bool decode_response(const std::string& payload, MatchResponse& response,
                     std::string& error) {
  response = MatchResponse{};
  bool saw_ok = false;
  const bool parsed = for_each_field(
      payload,
      [&](const std::string& key, const std::string& value) {
        if (key == "ok") {
          saw_ok = true;
          return parse_bool(value, response.ok);
        }
        if (key == "error") {
          response.error = value;
          return true;
        }
        if (key == "rejected") return parse_bool(value, response.rejected);
        if (key == "expired") return parse_bool(value, response.expired);
        if (key == "graph") {
          response.graph = value;
          return true;
        }
        if (key == "solver") {
          response.solver = value;
          return true;
        }
        if (key == "init") {
          response.initializer = value;
          return true;
        }
        if (key == "cardinality") return parse_int(value, response.cardinality);
        if (key == "maximum") return parse_int(value, response.maximum);
        if (key == "seconds") return parse_double(value, response.seconds);
        if (key == "session") {
          std::int64_t session = 0;
          if (!parse_int(value, session)) return false;
          response.session = static_cast<std::uint64_t>(session);
          return true;
        }
        if (key == "threads") {
          std::int64_t threads = 0;
          if (!parse_int(value, threads)) return false;
          response.threads = static_cast<int>(threads);
          return true;
        }
        if (key == "batch") {
          std::int64_t batch = 0;
          if (!parse_int(value, batch)) return false;
          response.batch = static_cast<int>(batch);
          return true;
        }
        return true;
      },
      error);
  if (!parsed) return false;
  if (!saw_ok) {
    error = "response is missing required field \"ok\"";
    return false;
  }
  return true;
}

namespace {

bool write_all(int fd, const void* data, std::size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t wrote = ::write(fd, cursor, size);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t size) {
  char* cursor = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = ::read(fd, cursor, size);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF mid-frame (or before one: clean close)
    cursor += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  unsigned char header[4];
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<unsigned char>(length & 0xff);
  header[1] = static_cast<unsigned char>((length >> 8) & 0xff);
  header[2] = static_cast<unsigned char>((length >> 16) & 0xff);
  header[3] = static_cast<unsigned char>((length >> 24) & 0xff);
  return write_all(fd, header, sizeof(header)) &&
         write_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload) {
  unsigned char header[4];
  if (!read_all(fd, header, sizeof(header))) return false;
  const std::uint32_t length =
      static_cast<std::uint32_t>(header[0]) |
      (static_cast<std::uint32_t>(header[1]) << 8) |
      (static_cast<std::uint32_t>(header[2]) << 16) |
      (static_cast<std::uint32_t>(header[3]) << 24);
  if (length > kMaxFrameBytes) return false;
  payload.resize(length);
  if (length == 0) return true;
  return read_all(fd, payload.data(), length);
}

}  // namespace graftmatch::serve
