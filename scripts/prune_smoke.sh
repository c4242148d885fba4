#!/bin/sh
# Prune smoke: liveness-minimized checkpointing end to end. Runs one
# program whose checkpoint sites have a genuinely dead variable through
# chkptsim twice — failure-free, and under injected crashes — and asserts:
#
#   1. the crashed run converges to the failure-free run's final state
#      (recovery from pruned checkpoints restores what the program reads);
#   2. the crashed run reports nonzero bytes saved.
set -eu

cd "$(dirname "$0")/.."

SIM=/tmp/chkptsim_prune.$$
PROG=/tmp/prune_smoke_prog.$$
OUT_P=/tmp/prune_smoke_pruned.$$
OUT_F=/tmp/prune_smoke_clean.$$
trap 'rm -f "$SIM" "$PROG" "$OUT_P" "$OUT_F"' EXIT

echo '>> building chkptsim'
go build -o "$SIM" ./cmd/chkptsim

# tmp is recomputed at the top of every iteration and zeroed before the
# loop ends, so it is dead at both checkpoint sites; x, y, iter stay live.
cat > "$PROG" <<'MPL'
program prunesmoke
const MAXITER = 6
var x, y, tmp, iter
proc {
    iter = 0
    while iter < MAXITER {
        tmp = x + iter
        x = tmp + rank
        if rank % 2 == 0 {
            chkpt
            send(rank + 1, x)
            recv(rank + 1, y)
        } else {
            recv(rank - 1, y)
            send(rank - 1, x)
            chkpt
        }
        tmp = 0
        iter = iter + 1
    }
}
MPL

echo '>> failure-free run'
"$SIM" -n 4 -transform "$PROG" > "$OUT_F"
echo '>> run with injected failures'
"$SIM" -n 4 -transform -fail 1:9 -fail 2:14 "$PROG" > "$OUT_P"

if ! grep -q '^prune: .* saved of ' "$OUT_P"; then
    echo 'crashed run reported no prune accounting:' >&2
    cat "$OUT_P" >&2
    exit 1
fi
if grep -q 'prune_bytes_saved=0 ' "$OUT_P"; then
    echo 'crashed run saved zero bytes — the dead variable was not dropped:' >&2
    cat "$OUT_P" >&2
    exit 1
fi
if ! grep -q 'restarts=[1-9]' "$OUT_P"; then
    echo 'crashed run did not restart:' >&2
    cat "$OUT_P" >&2
    exit 1
fi

# Final states must match line for line (both runs print sorted vars).
STATE_P=$(grep '^  proc ' "$OUT_P")
STATE_F=$(grep '^  proc ' "$OUT_F")
if [ -z "$STATE_F" ] || [ "$STATE_P" != "$STATE_F" ]; then
    echo 'crashed run diverged from the failure-free run:' >&2
    echo "crashed:      $STATE_P" >&2
    echo "failure-free: $STATE_F" >&2
    exit 1
fi

echo "$(grep '^prune: ' "$OUT_P")"
echo 'prune smoke OK'
