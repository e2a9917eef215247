// dar_ckpt: prints a section-by-section summary of a checkpoint file
// through the library's own codec (persist::DescribeCheckpoint).
//
// Usage: dar_ckpt [--no-floats] CHECKPOINT
//
// Exits 0 when every section decodes, 1 with the reason on stderr on any
// corruption, 2 on a usage error. --no-floats prints every floating-point
// field as `_`, so the text of an integer-valued fixture is byte-stable.

#include <iostream>
#include <string>

#include "persist/checkpoint_io.h"
#include "persist/codec.h"

int main(int argc, char** argv) {
  bool show_floats = true;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-floats") {
      show_floats = false;
    } else if (path.empty() && !arg.starts_with("-")) {
      path = arg;
    } else {
      path.clear();
      break;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: dar_ckpt [--no-floats] CHECKPOINT\n";
    return 2;
  }
  auto reader = dar::persist::CheckpointReader::Open(path);
  auto summary = reader.ok()
                     ? dar::persist::DescribeCheckpoint(*reader, show_floats)
                     : reader.status();
  if (!summary.ok()) {
    std::cerr << "dar_ckpt: error: " << summary.status().ToString() << "\n";
    return 1;
  }
  std::cout << *summary;
  return 0;
}
