// Temp-file helpers shared by the tests that write a WAL to disk.
//
// A crash is simulated by copying a live WAL file's bytes: what is on disk
// at that moment is exactly what a kill -9 leaves behind (only records
// WaitDurable forced), while the crashed engine's destructor would still
// flush its buffered tail into the original file.

#ifndef ACCDB_TESTS_TEST_FILES_H_
#define ACCDB_TESTS_TEST_FILES_H_

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>

namespace accdb {

// A path under the test temp dir. Callers unlink it before use, so a file
// left by an earlier run is never scanned as a surviving log.
inline std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "accdb_" + name;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace accdb

#endif  // ACCDB_TESTS_TEST_FILES_H_
