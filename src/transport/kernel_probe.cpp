// Kernel-capability probe behind IoUringAvailable(): reports whether this
// kernel offers io_uring with the features an io_uring event loop would
// need. Benchmark runs record the answer next to their results; no host
// runs an io_uring backend.

#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strutil.hpp"
#include "transport/transport.hpp"

namespace md {

namespace {

// One-shot kernel probe: set up a tiny ring, verify the EXT_ARG feature bit
// and a provided-buffer-ring registration, tear down. The failure reason is
// kept for IoUringAvailable's `whyNot`.
struct UringProbe {
  bool available = false;
  std::string whyNot;
};

UringProbe RunUringProbe() {
  UringProbe probe;
  io_uring_params params{};
  const int fd = static_cast<int>(::syscall(__NR_io_uring_setup, 4, &params));
  if (fd < 0) {
    probe.whyNot = Format("io_uring_setup failed: %s (kernel too old or "
                          "io_uring disabled)",
                          std::strerror(errno));
    return probe;
  }
  if ((params.features & IORING_FEAT_EXT_ARG) == 0) {
    probe.whyNot = "kernel lacks IORING_FEAT_EXT_ARG (needs >= 5.11)";
    ::close(fd);
    return probe;
  }
  // Provided-buffer rings (multishot recv) arrived in 5.19.
  void* ring = ::mmap(nullptr, 8 * sizeof(io_uring_buf), PROT_READ | PROT_WRITE,
                      MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (ring == MAP_FAILED) {
    probe.whyNot = Format("mmap: %s", std::strerror(errno));
    ::close(fd);
    return probe;
  }
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uint64_t>(ring);
  reg.ring_entries = 8;
  reg.bgid = 0;
  const int rc = static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, IORING_REGISTER_PBUF_RING, &reg, 1));
  if (rc < 0) {
    probe.whyNot = Format("provided buffer rings unsupported: %s (needs "
                          ">= 5.19)",
                          std::strerror(errno));
  } else {
    probe.available = true;
  }
  ::munmap(ring, 8 * sizeof(io_uring_buf));
  ::close(fd);
  return probe;
}

}  // namespace

bool IoUringAvailable(std::string* whyNot) {
  static const UringProbe probe = RunUringProbe();
  if (!probe.available && whyNot != nullptr) *whyNot = probe.whyNot;
  return probe.available;
}

}  // namespace md
