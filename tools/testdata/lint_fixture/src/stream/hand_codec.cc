// Fixture: a stream-layer file that lays out a record of its own instead
// of adding a field list to the codec files.

#include "persist/wire.h"

namespace dar {

void EncodeCounter(int64_t n, std::string& out) {
  persist::WireWriter w;
  w.I64(n);
  out = w.bytes();
}

}  // namespace dar
