// PCIe 2.0 ×16 link between host and device (paper §II-B: 8 GB/s nominal;
// §IV-A: ~25–30 ms to ship a ~5 M-nnz matrix).
//
// PCIe is full duplex: the host→device (H2D) and device→host (D2H)
// directions are independent lanes that can stream concurrently. The link is
// therefore modelled as two separately-clocked PcieChannel objects; the
// pipelined runtime (src/runtime/) schedules them on two distinct resource
// timelines so one request's input upload can overlap another's result
// download. The sequential driver keeps charging each transfer on the
// channel that direction uses — same per-transfer times as the seed model.
#pragma once

#include <cstdint>

#include "device/cost_model.hpp"
#include "fault/fault.hpp"
#include "sparse/csr.hpp"

namespace hh {

enum class PcieDir { kH2D, kD2H };

/// One direction of the link: latency + bandwidth + efficiency.
class PcieChannel {
 public:
  explicit PcieChannel(const PcieCostModel& cm, PcieDir dir = PcieDir::kH2D)
      : cm_(cm), dir_(dir) {}

  /// `lead` selects batched (wave-coalesced) costing: the lead transfer of
  /// a block pays the link latency that opens the shared reservation;
  /// followers (`lead == false`) stream back-to-back behind it and pay
  /// bytes only. A standalone transfer is a lead.
  double transfer_time(double bytes, bool lead = true) const;

  /// Shipping a CSR matrix (indptr + indices + values).
  double matrix_transfer_time(const CsrMatrix& m) const;

  /// Shipping n tuples of ⟨r, c, v⟩ (4 + 4 + 8 bytes).
  double tuple_transfer_time(std::int64_t n) const;

  /// Fault-aware variants: one transfer attempt under the injector's
  /// schedule (pass nullptr for a guaranteed-healthy attempt). A hard
  /// failure aborts partway through and wastes `elapsed_s`; a corruption
  /// runs to completion but the payload fails checksum verification — the
  /// caller must re-send (and, for uploads, drop device residency). A
  /// failed follower still keeps the latency floor on its elapsed time —
  /// the retry re-arbitrates the link.
  DeviceAttempt transfer_attempt(double bytes, FaultInjector* fi,
                                 bool lead = true) const;
  DeviceAttempt matrix_transfer_attempt(const CsrMatrix& m, FaultInjector* fi,
                                        bool lead = true) const;
  DeviceAttempt tuple_transfer_attempt(std::int64_t n, FaultInjector* fi) const;

  PcieDir direction() const { return dir_; }
  const PcieCostModel& model() const { return cm_; }

 private:
  PcieCostModel cm_;
  PcieDir dir_;
};

/// The full-duplex link: an H2D channel and a D2H channel with independent
/// clocks. Both directions share the PcieCostModel parameters (PCIe lanes
/// are symmetric).
class PcieLink {
 public:
  explicit PcieLink(const PcieCostModel& cm)
      : h2d_(cm, PcieDir::kH2D), d2h_(cm, PcieDir::kD2H) {}

  const PcieChannel& h2d() const { return h2d_; }
  const PcieChannel& d2h() const { return d2h_; }

  /// Direction-agnostic helpers for callers that charge a transfer without
  /// scheduling it on a channel timeline (single-request drivers, benches).
  /// Uploads go H2D; tuple results come back D2H.
  double transfer_time(double bytes) const { return h2d_.transfer_time(bytes); }
  double matrix_transfer_time(const CsrMatrix& m) const {
    return h2d_.matrix_transfer_time(m);
  }
  double tuple_transfer_time(std::int64_t n) const {
    return d2h_.tuple_transfer_time(n);
  }

  const PcieCostModel& model() const { return h2d_.model(); }

 private:
  PcieChannel h2d_;
  PcieChannel d2h_;
};

}  // namespace hh
