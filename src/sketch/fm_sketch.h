// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Flajolet-Martin probabilistic counting sketches (FM Sketch), the
// duplicate-insensitive distinct-user counter behind the paper's
// advertisement ranking scheme (Section III-E).
//
// Each sketch is an L-bit bitmap. Adding an element sets bit rho(hash(x)),
// where rho is the position of the lowest set bit of the hash — a geometric
// trial with P[rho = i] = 2^-(i+1). The position of the lowest *zero* bit,
// min(FM), estimates log2(phi * n). Adding is a bitwise OR, so duplicates
// never change the sketch and merging two sketches equals the sketch of the
// union of their inputs. An array of F such sketches, fed through F
// independent hash functions, averages the exponent to reduce variance:
//
//   rank(ad) = (1/phi) * 2^{ (1/F) * sum_i min(FM_i) },   phi ~= 0.77351.

#ifndef MADNET_SKETCH_FM_SKETCH_H_
#define MADNET_SKETCH_FM_SKETCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sketch/hash.h"
#include "util/status.h"

namespace madnet::sketch {

/// The Flajolet-Martin magic constant phi.
inline constexpr double kFmPhi = 0.77351;

/// A single L-bit FM bitmap (L <= 64).
class FmSketch {
 public:
  /// Creates an empty sketch with `length_bits` bits (1..64, default 32).
  explicit FmSketch(int length_bits = 32);

  /// Records one pre-hashed element. Bit rho(hash) is set (clamped to the
  /// top bit when rho >= L, so the sketch never overflows).
  void AddHash(uint64_t hash);

  /// True iff bit `i` is set. Requires 0 <= i < length_bits().
  bool TestBit(int i) const;

  /// Position of the lowest zero bit — the FM observable. Returns
  /// length_bits() when every bit is set.
  int MinZeroBit() const;

  /// Estimated number of distinct elements added: 2^MinZeroBit() / phi.
  double Estimate() const;

  /// Bitwise-OR merge; equals the sketch of the union of both input sets.
  /// Returns InvalidArgument if the lengths differ.
  Status Merge(const FmSketch& other);

  /// True iff no bit is set.
  bool Empty() const { return bits_ == 0; }

  /// Raw bitmap (low bit = position 0).
  uint64_t bits() const { return bits_; }

  /// Restores a sketch from its raw bitmap. Bits at positions >=
  /// `length_bits` must be zero (InvalidArgument otherwise).
  static StatusOr<FmSketch> FromBits(uint64_t bits, int length_bits);

  /// Number of bits in the bitmap.
  int length_bits() const { return length_bits_; }

  /// "101100..." rendering, position 0 first; for logs and tests.
  std::string ToString() const;

  bool operator==(const FmSketch& other) const {
    return bits_ == other.bits_ && length_bits_ == other.length_bits_;
  }

 private:
  uint64_t bits_ = 0;
  int length_bits_;
};

/// F independent FM sketches; this is the structure piggy-backed on every
/// advertisement message. Total wire size is F*L bits. The hash family is
/// not stored: it is derived from Options::hash_seed when a user is added.
class FmSketchArray {
 public:
  /// Configuration of the sketch array. All peers must agree on it; it is a
  /// protocol constant carried in ScenarioConfig.
  struct Options {
    int num_sketches = 16;   ///< F: sketches (hash functions) per array.
    int length_bits = 32;    ///< L: bits per sketch.
    uint64_t hash_seed = 0x6D61646E65740001ULL;  ///< Family seed ("madnet").
  };

  FmSketchArray() : FmSketchArray(Options{}) {}
  explicit FmSketchArray(const Options& options);

  /// Records a (possibly duplicate) user id in every sketch.
  void AddUser(uint64_t user_id);

  /// Estimated number of distinct user ids added (Formula 6 of the paper).
  double Estimate() const;

  /// Bitwise-OR merge of two arrays built with identical Options.
  /// Returns InvalidArgument on shape or seed mismatch. When `changed` is
  /// non-null it is set to whether any bit of this array flipped.
  Status Merge(const FmSketchArray& other, bool* changed = nullptr);

  /// True iff no user has been added.
  bool Empty() const;

  /// Wire size of the bitmaps, in bits (F * L).
  int SizeBits() const;

  /// Reconstructs an array from its options and raw bitmaps (one word per
  /// sketch, wire/persistence path). InvalidArgument if the count does not
  /// match options.num_sketches or any bitmap has bits beyond length_bits.
  static StatusOr<FmSketchArray> FromParts(
      const Options& options, const std::vector<uint64_t>& bitmaps);

  /// The i-th sketch. Requires 0 <= i < options().num_sketches.
  const FmSketch& sketch(int i) const { return sketches_[i]; }

  const Options& options() const { return options_; }

  bool operator==(const FmSketchArray& other) const;

  /// Theoretical relative-error bound helper: the L needed so that the
  /// estimate is within epsilon*n with probability >= 1 - delta for
  /// populations up to `max_n` (L = O(log n + log F + log 1/delta)).
  static int RecommendedLength(uint64_t max_n, int num_sketches, double delta);

 private:
  Options options_;
  std::vector<FmSketch> sketches_;
};

}  // namespace madnet::sketch

#endif  // MADNET_SKETCH_FM_SKETCH_H_
