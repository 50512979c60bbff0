// Must not compile as written; must with USE_IT (tests/CMakeLists.txt).
#include "util/status.h"
madnet::Status Check();
#ifdef USE_IT
bool Use() { return Check().ok(); }
#else
void Drop() { Check(); }
#endif
