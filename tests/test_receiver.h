// Copyright (c) 2026 madnet authors. All rights reserved.
//
// A net::Receiver that forwards every delivery to a callback, so medium
// tests can observe receptions with a lambda.

#ifndef MADNET_TESTS_TEST_RECEIVER_H_
#define MADNET_TESTS_TEST_RECEIVER_H_

#include <functional>
#include <utility>

#include "net/medium.h"

namespace madnet::net {

class CallbackReceiver : public Receiver {
 public:
  using Callback = std::function<void(const Packet& packet, NodeId from)>;

  explicit CallbackReceiver(Callback callback)
      : callback_(std::move(callback)) {}

  void OnReceive(const Packet& packet, NodeId from) override {
    callback_(packet, from);
  }

 private:
  Callback callback_;
};

}  // namespace madnet::net

#endif  // MADNET_TESTS_TEST_RECEIVER_H_
