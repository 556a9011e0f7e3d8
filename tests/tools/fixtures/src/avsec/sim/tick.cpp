long step();

long tick() {
  const long next = step();
  return next * 2;
}
