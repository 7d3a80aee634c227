#!/usr/bin/env bash
# End-to-end checks of the installed `fracpow` console script.  Both CI jobs
# run this after installing the package; it works in a fresh temporary
# directory.
set -eo pipefail
cd "$(mktemp -d)"

fracpow --help
fracpow verify --matrix lap1d:50 --alpha 0.5 --eps 1e-6 --family gj2
fracpow thresholds --matrix lap1d:50 --alpha 0.5 --eps 1e-6 --family gj2
# Pricing alone rejects an unreachable gj budget, so this exits 1 at once.
status=0
timeout 5 fracpow thresholds --matrix diag:1e-8,1e-6,1e-4,1e-2,1 --alpha 0.5 --eps 1e-6 --family gj1 || status=$?
test "$status" -eq 1
# A stagnated solve exits 2 and names the failing term of the certificate.
status=0
fracpow compute --matrix lap1d:1000 --alpha 0.2 --eps 1e-9 --family de --out /dev/null 2> compute.err || status=$?
test "$status" -eq 2
grep -q "certified=no failing=solve" compute.err
# The spectral bounds read the Lanczos tridiagonal off one CG run,
# which stops at its 200-step checkpoint on this matrix.
FRACPOW_LOG=DEBUG fracpow thresholds --matrix lap2d:150x150 --alpha 0.5 --eps 1e-6 --out /dev/null 2> bounds.log
grep -q "stopped after 200 steps" bounds.log
fracpow verify
fracpow compute --matrix lap2d:16x16 --alpha 0.5 --eps 1e-6 --out run.json
printf '%%%%MatrixMarket matrix coordinate complex hermitian\n3 3 5\n1 1 4 0\n2 1 1 1\n2 2 4 0\n3 2 1 -1\n3 3 4 0\n' > h.mtx
fracpow compute --matrix mm:h.mtx --alpha 0.5 --eps 1e-6 --format csv
fracpow verify --matrix mm:h.mtx --alpha 0.5 --eps 1e-6
fracpow bound-trace --matrix mm:h.mtx --shifts 1 --eps 1e-10
# The bound column stays at or above the measured error on every row.
fracpow bound-trace --matrix mm:h.mtx --shifts 0,0.1,1,10,100 --format json --out trace-h.json
fracpow bound-trace --matrix lap1d:50 --format json --out trace-lap1d.json
python -c "import json, sys; rows = [r for f in sys.argv[1:] for r in json.load(open(f))]; assert rows and all(r['error_bound'] >= r['measured_error'] for r in rows)" trace-h.json trace-lap1d.json
# The spectral interval and gj2's scale are formed in the matrix's units, so
# entries near 1e250 overflow neither.
printf '%%%%MatrixMarket matrix coordinate real symmetric\n3 3 5\n1 1 2e250\n2 1 -1e250\n2 2 2e250\n3 2 -1e250\n3 3 2e250\n' > big.mtx
fracpow compute --matrix mm:big.mtx --alpha 0.5 --eps 1e120 --family gj2 --out /dev/null
