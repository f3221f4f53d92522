// Fixture: BL012 raw-write. Never compiled — scanned by lint_test only.
#include <cstdio>
#include <fstream>
#include <unistd.h>

void bad_save(const char* path) {
  std::ofstream out(path);
  out << "not atomic";
}

void bad_save_c(const char* path) {
  FILE* f = fopen(path, "w");
  if (f) fclose(f);
}

void bad_commit(int fd) {
  // A hand-rolled durable commit: the syncs and the truncate belong to
  // util::JournalCommitter.
  ::ftruncate(fd, 0);
  fdatasync(fd);
  ::fsync(fd);
}
