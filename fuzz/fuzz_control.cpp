// Fuzz harness for the saiyand control-protocol codec
// (src/daemon/control_protocol.*) and the readout option parser
// (gateway::parse_readout_query) that decoded payloads feed.
//
// Contract under fuzz: arbitrary bytes fed to decode_request /
// decode_response may be rejected with a typed error but must never
// crash, over-read, or allocate proportionally to a lying length
// prefix. Frames that do decode must survive an encode → decode
// round-trip bit-exactly (the daemon echoes decoded requests into
// handlers and re-frames responses, so codec asymmetry would corrupt
// the control plane silently).
//
// The same file builds two ways, mirroring fuzz_ingest.cpp:
//
//   * with clang -fsanitize=fuzzer: LLVMFuzzerTestOneInput links
//     against libFuzzer's driver (CI fuzz-smoke job);
//   * with SAIYAN_FUZZ_STANDALONE: a plain main() that replays corpus
//     files given as argv — the gcc-friendly ctest regression path
//     (fuzz_control_replay).
//
// Both entry points share run_one().
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "daemon/control_protocol.hpp"
#include "gateway/gateway_metrics.hpp"

namespace {

using namespace saiyan;

/// assert() is compiled out in Release; the round-trip invariants must
/// hold in every build the fuzzer or the ctest replay runs under.
void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "fuzz_control: invariant failed: %s\n", what);
  std::abort();
}

void drive_request(std::string_view bytes) {
  auto req = daemon::decode_request(bytes);
  if (!req.ok()) return;
  // The daemon hands every readout payload to the option parser: any
  // bytes may be rejected, never crash it.
  (void)gateway::parse_readout_query(
      req.value().payload, req.value().op == daemon::ControlOp::kLinks);
  // A decodable frame must round-trip bit-exactly.
  const std::string wire = daemon::encode_request(req.value());
  check(wire == bytes, "wire == bytes");
  auto again = daemon::decode_request(wire);
  check(again.ok(), "again.ok()");
  check(again.value().op == req.value().op, "again.value().op == req.value().op");
  check(again.value().payload == req.value().payload, "again.value().payload == req.value().payload");
}

void drive_response(std::string_view bytes) {
  auto resp = daemon::decode_response(bytes);
  if (!resp.ok()) return;
  const std::string wire = daemon::encode_response(resp.value());
  check(wire == bytes, "wire == bytes");
  auto again = daemon::decode_response(wire);
  check(again.ok(), "again.ok()");
  check(again.value().status == resp.value().status, "again.value().status == resp.value().status");
  check(again.value().payload == resp.value().payload, "again.value().payload == resp.value().payload");
}

void drive_reframe(std::string_view bytes) {
  // Treat the raw input as a payload: encoding any payload under the
  // cap must yield a frame the decoder accepts unchanged.
  if (bytes.size() >= daemon::kMaxControlPayload) return;
  daemon::ControlRequest req;
  req.op = daemon::ControlOp::kStats;
  req.payload.assign(bytes);
  auto back = daemon::decode_request(daemon::encode_request(req));
  check(back.ok(), "back.ok()");
  check(back.value().payload == req.payload, "back.value().payload == req.payload");
}

void run_one(const std::uint8_t* data, std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  drive_request(bytes);
  drive_response(bytes);
  drive_reframe(bytes);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  run_one(data, size);
  return 0;
}

#if defined(SAIYAN_FUZZ_STANDALONE)

#include <cstdio>
#include <fstream>
#include <sstream>

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = std::move(ss).str();
    run_one(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    ++replayed;
  }
  std::printf("fuzz_control: replayed %d corpus file(s) cleanly\n", replayed);
  return 0;
}

#endif  // SAIYAN_FUZZ_STANDALONE
