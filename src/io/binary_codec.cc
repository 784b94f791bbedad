#include "io/binary_codec.h"

#include <utility>

namespace adalsh {

void EncodeRecord(const Record& record, BinaryWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(record.num_fields()));
  for (FieldId f = 0; f < record.num_fields(); ++f) {
    const Field& field = record.field(f);
    writer->PutU8(static_cast<uint8_t>(field.kind()));
    writer->PutU32(static_cast<uint32_t>(field.size()));
    if (field.is_dense()) {
      for (float v : field.dense()) writer->PutF32(v);
    } else {
      for (uint64_t t : field.tokens()) writer->PutU64(t);
    }
  }
  writer->PutString(record.label());
}

StatusOr<Record> DecodeRecord(BinaryReader* reader) {
  auto num_fields = reader->GetU32();
  if (!num_fields.ok()) return num_fields.status();
  // Every field takes at least its kind (u8) and size (u32): a count the
  // remaining bytes cannot hold is corruption, not a reason to reserve.
  if (reader->remaining() / 5 < *num_fields) {
    return Status::OutOfRange("field count overruns payload");
  }
  std::vector<Field> fields;
  fields.reserve(*num_fields);
  for (uint32_t f = 0; f < *num_fields; ++f) {
    auto kind = reader->GetU8();
    if (!kind.ok()) return kind.status();
    auto size = reader->GetU32();
    if (!size.ok()) return size.status();
    // A declared size that exceeds the remaining bytes is corruption; check
    // up front so a bit flip in the size field can't trigger a huge reserve.
    if (*kind == static_cast<uint8_t>(Field::Kind::kDenseVector)) {
      if (reader->remaining() < static_cast<size_t>(*size) * 4) {
        return Status::OutOfRange("dense field overruns payload");
      }
      std::vector<float> values;
      values.reserve(*size);
      for (uint32_t i = 0; i < *size; ++i) {
        auto v = reader->GetF32();
        if (!v.ok()) return v.status();
        values.push_back(*v);
      }
      fields.push_back(Field::DenseVector(std::move(values)));
    } else if (*kind == static_cast<uint8_t>(Field::Kind::kTokenSet)) {
      if (reader->remaining() < static_cast<size_t>(*size) * 8) {
        return Status::OutOfRange("token field overruns payload");
      }
      std::vector<uint64_t> tokens;
      tokens.reserve(*size);
      for (uint32_t i = 0; i < *size; ++i) {
        auto t = reader->GetU64();
        if (!t.ok()) return t.status();
        tokens.push_back(*t);
      }
      fields.push_back(Field::TokenSet(std::move(tokens)));
    } else {
      return Status::InvalidArgument("unknown field kind " +
                                     std::to_string(*kind));
    }
  }
  auto label = reader->GetString();
  if (!label.ok()) return label.status();
  return Record(std::move(fields), *std::move(label));
}

}  // namespace adalsh
