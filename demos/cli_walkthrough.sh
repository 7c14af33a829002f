#!/bin/sh
# End-to-end tour of the command-line interface: simulate a dataset, fit it
# with a confidence band, then run small convergence and coverage studies.
# Every command is deterministic given its seed; artifacts land in a scratch
# directory printed at the end.
set -e

OUT=$(mktemp -d)
echo "artifacts in $OUT"

# 1. Simulate 200 subjects over [0, 1.5]: an event rate rising linearly from
#    0.5 to 1.25 (linear:INTERCEPT,SLOPE), and a censoring rate tabulated as
#    0.2 up to time 0.5, then rising to 0.6 at 1.5 (table:t1:r1,t2:r2,...).
#    Steps 4 and 5 use the third form, a constant rate (constant:RATE).
python3 -m hazard_transform.cli simulate \
    --system survival --hazard linear:0.5,0.5 \
    --censor table:0:0.2,0.5:0.2,1.5:0.6 \
    --horizon 1.5 --n 200 --seed 42 --out "$OUT/sim"
echo "--- dataset head:"
head -4 "$OUT/sim/dataset.csv"

# 2. Fit the survival transform with a 90% band.
python3 -m hazard_transform.cli estimate \
    --system survival --data "$OUT/sim/dataset.csv" --level 0.90 \
    --out "$OUT/fit"
echo "--- fit artifacts:"
ls "$OUT/fit"
head -3 "$OUT/fit/band.csv"

# 3. The same run driven by a JSON config; flags override config keys.
cat > "$OUT/run.json" <<'EOF'
{
  "system": {"name": "survival"},
  "data": "DATASET",
  "level": 0.95
}
EOF
sed -i "s|DATASET|$OUT/sim/dataset.csv|" "$OUT/run.json"
python3 -m hazard_transform.cli estimate --config "$OUT/run.json" \
    --out "$OUT/fit95"
python3 - "$OUT/fit95/fit.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as fh:
    meta = json.load(fh)
print("fit.json level:", meta["level"], " labels:", meta["state_labels"])
EOF

# 4. A small convergence study (three sample sizes, 10 replications each).
python3 -m hazard_transform.cli converge \
    --system survival --hazard constant:1.0 --horizon 1.0 \
    --n-list 50,100,200 --k 10 --seed 7 --out "$OUT/conv"
echo "--- convergence rows:"
cat "$OUT/conv/convergence.csv"

# 5. A small coverage study at four interior times.
python3 -m hazard_transform.cli coverage \
    --system survival --hazard constant:1.0 --horizon 1.0 \
    --n 100 --k 40 --t-grid 0.2,0.4,0.6,0.8 --seed 9 --out "$OUT/cov"
echo "--- coverage rows:"
cat "$OUT/cov/coverage.csv"

echo "done; artifacts kept in $OUT"
