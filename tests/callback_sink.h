// Test-only noc::DeliverySink that forwards deliveries and drops to
// lambdas, so a test can state its receiver inline. Register it with
// MeshNoc::SetDeliverySink on the nodes it should serve; it must outlive
// every event that may reach it.
#pragma once

#include <functional>
#include <utility>

#include "noc/mesh.h"

namespace cim::noc {

class CallbackSink final : public DeliverySink {
 public:
  using DeliveryFn = std::function<void(const Delivery&)>;
  using DropFn = std::function<void(const Packet&, DropReason)>;

  explicit CallbackSink(DeliveryFn on_delivery, DropFn on_drop = {})
      : on_delivery_(std::move(on_delivery)), on_drop_(std::move(on_drop)) {}

  void OnDelivery(Delivery&& delivery) override {
    if (on_delivery_) on_delivery_(delivery);
  }
  void OnDrop(const Packet& packet, DropReason reason) override {
    if (on_drop_) on_drop_(packet, reason);
  }

 private:
  DeliveryFn on_delivery_;
  DropFn on_drop_;
};

}  // namespace cim::noc
