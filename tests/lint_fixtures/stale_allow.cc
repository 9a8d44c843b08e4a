// Stale-suppression fixture: an allow comment naming no cataloged rule or
// family suppresses nothing and is itself a stale-allow error, while rule,
// family and `all` names stay legal (tests/test_lint.cc expects exactly
// the findings on lines 9 and 11).
int Demo(int x) {
  int y = x + 1;
  // manic-lint: allow(concurrency: atomic-order)
  y += 2;
  // manic-lint: allow(layout: alloc-scale) -- a retired tier
  y += 3;
  // manic-lint: allow(units, unit)
  y += 4;
  // manic-lint: allow(all)
  return y;
}
