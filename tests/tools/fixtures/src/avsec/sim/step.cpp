long raw_ns();

long step() { return raw_ns() + 1; }
