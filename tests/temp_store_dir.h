// A fresh image-store directory for one test, removed on the way out.
// Shared by the image-store suite and the conformance suite's snapshot
// round trip.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>

namespace ndp::test {

class TempStoreDir {
 public:
  explicit TempStoreDir(const char* tag) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "/tmp/ndp_store_%s_XXXXXX", tag);
    char* got = ::mkdtemp(buf);
    EXPECT_NE(got, nullptr);
    if (got) path_ = got;
  }
  ~TempStoreDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempStoreDir(const TempStoreDir&) = delete;
  TempStoreDir& operator=(const TempStoreDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ndp::test
