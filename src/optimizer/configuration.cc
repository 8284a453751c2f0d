#include "optimizer/configuration.h"

#include <sstream>

#include "common/logging.h"

namespace capd {

namespace {

// Field-wise signature equality: the duplicate check below runs on every
// Add of the advisor's search, so it renders no signatures.
bool SameIndex(const IndexDef& a, const IndexDef& b) {
  if (a.object != b.object || a.clustered != b.clustered ||
      a.compression != b.compression || a.key_columns != b.key_columns ||
      a.include_columns != b.include_columns ||
      a.filter.has_value() != b.filter.has_value()) {
    return false;
  }
  return !a.filter.has_value() || a.filter->ToString() == b.filter->ToString();
}

}  // namespace

void Configuration::Add(PhysicalIndexEstimate idx) {
  for (const PhysicalIndexEstimate& member : indexes_) {
    CAPD_CHECK(!SameIndex(member.def, idx.def))
        << "duplicate index in configuration: " << idx.def.ToString();
  }
  indexes_.push_back(std::move(idx));
}

bool Configuration::Remove(const std::string& signature) {
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (it->def.Signature() == signature) {
      indexes_.erase(it);
      return true;
    }
  }
  return false;
}

bool Configuration::Contains(const std::string& signature) const {
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.Signature() == signature) return true;
  }
  return false;
}

std::vector<const PhysicalIndexEstimate*> Configuration::IndexesOn(
    const std::string& object) const {
  std::vector<const PhysicalIndexEstimate*> out;
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.object == object) out.push_back(&idx);
  }
  return out;
}

bool Configuration::HasClusteredOn(const std::string& object) const {
  for (const PhysicalIndexEstimate& idx : indexes_) {
    if (idx.def.object == object && idx.def.clustered) return true;
  }
  return false;
}

double Configuration::TotalBytes() const {
  double bytes = 0.0;
  for (const PhysicalIndexEstimate& idx : indexes_) bytes += idx.bytes;
  return bytes;
}

std::string Configuration::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (i > 0) os << "; ";
    os << indexes_[i].def.ToString() << " ~"
       << static_cast<uint64_t>(indexes_[i].bytes / 1024) << "KB";
  }
  os << "}";
  return os.str();
}

}  // namespace capd
