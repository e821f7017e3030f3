/* Literal subscripts in every position the analyzer visits: statements,
   conditions, returns, ternaries, loop headers and nested subscripts. */
float corners(int n, float a[N][N], float b[8]) {
  float s;
  s = a[0][3] + b[b[2] > 0.0 ? 5 : 1];
  if (b[6] > 1.0) {
    s = s + a[2][1];
  } else {
    b[4] = s;
  }
  for (int i = b[1] > 0.0 ? 0 : 1; i < 12; i++) {
    b[i] = b[i] + a[i][9];
  }
  return s > 0.0 ? a[7][0] : b[3];
}

int header_only(int n, int c[16]) {
  int t;
  t = 0;
  for (int i = c[10]; i <= c[15]; i += c[2]) {
    for (int j = 0; j < n; j++) {
      t = t + c[c[13]];
    }
  }
  return c[14] - t;
}

void float_and_negative(int n, float d[N]) {
  d[-1] = 2.0;
  d[2.0] = d[n] + 1.5e2;
  for (int i = 0; i < 3; ++i) d[i] = d[i + 20] * 0.5f;
}

float in_cond(float a[N]) {
  if (a[21] > 0.0) {
    return 1.0;
  }
  return 0.0;
}

float in_return(float a[N]) { return a[0] + a[30]; }

void in_nested(float a[N], int c[N]) { a[c[40]] = 0.0; }

void in_ternary(int n, float a[N]) { a[n] = n > 0 ? a[50] : 0.0; }

void in_header_init(int c[N], float a[N]) {
  for (int i = c[60]; i < N; i++) a[i] = 0.0;
}
