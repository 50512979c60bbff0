// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ad_codec.h"

#include <cstring>

namespace madnet::core {

namespace {

constexpr uint32_t kMagic = 0x4D414456;  // 'MADV'.
constexpr uint16_t kVersion = 1;

// --- Encoding primitives (little-endian) ---

void PutU16(std::string* out, uint16_t v) {
  char buf[2];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  out->append(buf, 2);
}

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(buf, 8);
}

void PutDouble(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// --- Decoding primitives ---

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU16(uint16_t* v) {
    if (bytes_.size() - pos_ < 2) return Fail();
    *v = static_cast<uint16_t>(Byte(0) | (Byte(1) << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (bytes_.size() - pos_ < 4) return Fail();
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(Byte(i)) << (8 * i);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (bytes_.size() - pos_ < 8) return Fail();
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(Byte(i)) << (8 * i);
    pos_ += 8;
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t length;
    if (!ReadU32(&length)) return false;
    if (bytes_.size() - pos_ < length) return Fail();
    s->assign(bytes_.substr(pos_, length));
    pos_ += length;
    return true;
  }

  bool ok() const { return ok_; }
  bool Exhausted() const { return pos_ == bytes_.size(); }

 private:
  unsigned Byte(int offset) const {
    return static_cast<unsigned char>(bytes_[pos_ + offset]);
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

std::string EncodeAdvertisement(const Advertisement& ad) {
  std::string out;
  out.reserve(EncodedSize(ad));
  PutU32(&out, kMagic);
  PutU16(&out, kVersion);
  PutU32(&out, ad.id.issuer);
  PutU32(&out, ad.id.sequence);
  PutDouble(&out, ad.issue_time);
  PutDouble(&out, ad.issue_location.x);
  PutDouble(&out, ad.issue_location.y);
  PutDouble(&out, ad.initial_radius_m);
  PutDouble(&out, ad.initial_duration_s);
  PutDouble(&out, ad.radius_m);
  PutDouble(&out, ad.duration_s);
  PutString(&out, ad.content.category);
  PutU16(&out, static_cast<uint16_t>(ad.content.keywords.size()));
  for (const auto& keyword : ad.content.keywords) PutString(&out, keyword);
  PutString(&out, ad.content.text);
  const auto& options = ad.sketches.options();
  PutU16(&out, static_cast<uint16_t>(options.num_sketches));
  PutU16(&out, static_cast<uint16_t>(options.length_bits));
  PutU64(&out, options.hash_seed);
  for (int i = 0; i < options.num_sketches; ++i) {
    PutU64(&out, ad.sketches.sketch(i).bits());
  }
  return out;
}

size_t EncodedSize(const Advertisement& ad) {
  // Magic + version + issuer + sequence + 7 doubles (time, x, y, initial
  // R/D, current R/D).
  size_t size = 4 + 2 + 4 + 4 + 7 * 8;
  size += 4 + ad.content.category.size();
  size += 2;
  for (const auto& keyword : ad.content.keywords) {
    size += 4 + keyword.size();
  }
  size += 4 + ad.content.text.size();
  size += 2 + 2 + 8;  // Sketch geometry + seed.
  size += 8 * static_cast<size_t>(ad.sketches.options().num_sketches);
  return size;
}

StatusOr<Advertisement> DecodeAdvertisement(std::string_view bytes) {
  Reader reader(bytes);
  uint32_t magic;
  uint16_t version;
  if (!reader.ReadU32(&magic) || magic != kMagic) {
    return Status::InvalidArgument("bad advertisement magic");
  }
  if (!reader.ReadU16(&version) || version != kVersion) {
    return Status::InvalidArgument("unsupported advertisement version");
  }

  Advertisement ad;
  uint32_t issuer;
  uint32_t sequence;
  bool ok = reader.ReadU32(&issuer) && reader.ReadU32(&sequence) &&
            reader.ReadDouble(&ad.issue_time) &&
            reader.ReadDouble(&ad.issue_location.x) &&
            reader.ReadDouble(&ad.issue_location.y) &&
            reader.ReadDouble(&ad.initial_radius_m) &&
            reader.ReadDouble(&ad.initial_duration_s) &&
            reader.ReadDouble(&ad.radius_m) && reader.ReadDouble(&ad.duration_s);
  if (!ok) return Status::InvalidArgument("truncated advertisement header");
  ad.id = AdId{issuer, sequence};

  if (!reader.ReadString(&ad.content.category)) {
    return Status::InvalidArgument("truncated category");
  }
  uint16_t keyword_count;
  if (!reader.ReadU16(&keyword_count)) {
    return Status::InvalidArgument("truncated keyword count");
  }
  ad.content.keywords.resize(keyword_count);
  for (auto& keyword : ad.content.keywords) {
    if (!reader.ReadString(&keyword)) {
      return Status::InvalidArgument("truncated keyword");
    }
  }
  if (!reader.ReadString(&ad.content.text)) {
    return Status::InvalidArgument("truncated text");
  }

  uint16_t num_sketches;
  uint16_t length_bits;
  uint64_t hash_seed;
  if (!reader.ReadU16(&num_sketches) || !reader.ReadU16(&length_bits) ||
      !reader.ReadU64(&hash_seed)) {
    return Status::InvalidArgument("truncated sketch geometry");
  }
  sketch::FmSketchArray::Options options;
  options.num_sketches = num_sketches;
  options.length_bits = length_bits;
  options.hash_seed = hash_seed;
  if (num_sketches < 1 || length_bits < 1 || length_bits > 64) {
    return Status::InvalidArgument("invalid sketch geometry");
  }
  std::vector<uint64_t> bitmaps(num_sketches);
  for (auto& bits : bitmaps) {
    if (!reader.ReadU64(&bits)) {
      return Status::InvalidArgument("truncated sketch bitmaps");
    }
  }
  auto sketches = sketch::FmSketchArray::FromParts(options, bitmaps);
  if (!sketches.ok()) return sketches.status();
  ad.sketches = std::move(sketches).value();

  if (!reader.Exhausted()) {
    return Status::InvalidArgument("trailing bytes after advertisement");
  }
  return ad;
}

}  // namespace madnet::core
