#!/usr/bin/env bash
# The installed finv, end to end, in an empty directory: built-in levels must
# leave it as it was apart from the redirected output and the input series.
# Needs finv on PATH (pip install ., or the shim in README); takes no options.
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

# expect CODE STREAM HOW TEXT CMD...: CMD exits CODE, and its STREAM (out or
# err) matches TEXT by HOW: its last line, a whole line, the whole stream, or
# a substring; else the stream is printed and the script exits 1
expect() {
  local want=$1 stream=$2 how=$3 text=$4 got code=0
  shift 4
  if [ "$stream" = out ]; then got="$("$@")" || code=$?
  else got="$("$@" 2>&1 >/dev/null)" || code=$?; fi
  if [ "$code" = "$want" ] && case $how in
      last) [ "${got##*$'\n'}" = "$text" ] ;;
      line) [[ $'\n'$got$'\n' == *$'\n'"$text"$'\n'* ]] ;;
      whole) [ "$got" = "$text" ] ;;
      has) [[ $got == *"$text"* ]] ;;
      *) false ;;
    esac; then
    echo "ok: $*"
    return
  fi
  printf '%s\n' "$got" | tail -n 40
  echo "FAIL: $*: expected exit $want and std$stream matching ($how) '$text', got exit $code"
  exit 1
}

finv eis -N 3 -k 2 -p 12 --tilde --machine > F.txt
expect 0 out line 'verdict: True' finv divcong F.txt F.txt -N 3 -w 2
# every worked example holds at level 3; an even level is a usage error naming
# the example asked for, also at level 6, which has no built-in generators:
# the level is checked before any basis
for name in trivial eta2 nu2 etasigma su3; do
  expect 0 out last 'verdict: True' finv example "$name" -N 3 -p 12
done
for spec in "su3 2" "nu2 6"; do
  set -- $spec
  expect 2 err has "error: $1 " finv example "$1" -N "$2" -p 8
done
# finv assemble reads only the twists its kind needs: an odd-twists-only
# kernel-parity table assembles, and a quaternionic table holding twists 1 and
# 2 is refused, naming the first absent twist
printf '%s 1\n' 1 3 5 7 9 11 > P.txt
expect 0 out last 'weight bound: 5' finv assemble --kind quaternionic-reduced --xi P.txt -l 4 -N 3 -p 12
printf '1 1\n2 1\n' > X.txt
expect 3 err whole 'error: twist 3 missing (need support to 11)' finv assemble --kind quaternionic --xi X.txt -l 3 -N 3 -p 12
# bases beyond level 3 at weight 2: level 4 to weight 6, level 2 to weight 8
for nw in "4 6" "2 8"; do
  set -- $nw
  finv eis -N "$1" -k 2 -p 40 --tilde --machine > "H$1.txt"
  expect 0 out line 'verdict: True' finv divcong "H$1.txt" "H$1.txt" -N "$1" -w "$2"
done
# past the divisor sieve's split: Gtilde_4 at level 2 (zeta = -1) is
# -sum_{d|n} 2 (-1)^(n/d) d^3 q^n, summed here without finvariant
expect 0 out whole "$(python3 -c 'print("level=2 weight=4 prec=300 label=Gtilde_4")
for n in range(300):
    print(n, -sum(2 * (-1) ** (n // d) * d ** 3 for d in range(1, n + 1) if n % d == 0))')" \
  finv eis -N 2 -k 4 -p 300 --tilde --machine
# a prime level, where the twist pairs class j with -j: Gtilde_3 at level 7 is
# sum_{d|n} d^2 (zeta^(n/d) - zeta^(-n/d)) q^n, with
# zeta^6 = -(1 + zeta + ... + zeta^5), summed here without finvariant
expect 0 out whole "$(python3 -c 'print("level=7 weight=3 prec=200 label=Gtilde_3")
for n in range(200):
    c = [0] * 7
    for d in range(1, n + 1):
        if n % d == 0:
            c[n // d % 7] += d * d
            c[-(n // d) % 7] -= d * d
    print(n, *(x - c[6] for x in c[:6]))')" \
  finv eis -N 7 -k 3 -p 200 --tilde --machine
# a constant term: Ghat_1 at level 5 is c_1 + sum_{d|n} (zeta^(n/d) - zeta^(-n/d)) q^n,
# c_1 = 1/2 - (1/5) sum_{j<5} j zeta^(j+1), with zeta^4 = -(1 + zeta + zeta^2 + zeta^3),
# summed here without finvariant; the human series prints the same q^0
expect 0 out whole "$(python3 -c 'from fractions import Fraction
c = [Fraction(1, 2), 0, 0, 0, 0]
for j in range(5):
    c[(j + 1) % 5] -= Fraction(j, 5)
print("level=5 weight=1 prec=12 label=Ghat_1")
print(0, *(x - c[4] for x in c[:4]))
for n in range(1, 12):
    c = [0] * 5
    for d in range(1, n + 1):
        if n % d == 0:
            c[n // d % 5] += 1
            c[-(n // d) % 5] -= 1
    print(n, *(x - c[4] for x in c[:4]))')" \
  finv eis -N 5 -k 1 -p 12 --machine
expect 0 out line '  q^0: 3/10 + 3/5*z + 2/5*z^2 + 1/5*z^3' finv eis -N 5 -k 1 -p 4
# the two-sided assembly at level 7, at P = 5 < 7 (the class -j of a twist
# j < P is past P but not empty) and at P = 12: q^n is
# sum_{d|n} (zeta^(-n/d) xi[d] - zeta^(n/d) xi[-d]) with xi[d] = d and
# xi[-d] = d^2 mod 5 - 2, summed here without finvariant
for d in $(seq 1 11); do printf '%s %s\n-%s %s\n' "$d" "$d" "$d" "$((d * d % 5 - 2))"; done > C.txt
for p in 5 12; do
  expect 0 out whole "$(python3 -c 'import sys
p = int(sys.argv[1])
print(f"level=7 weight=? prec={p} label=assembled[complex]")
for n in range(p):
    c = [0] * 7
    for d in range(1, n + 1):
        if n % d == 0:
            c[-(n // d) % 7] += d
            c[n // d % 7] -= d * d % 5 - 2
    print(n, *(x - c[6] for x in c[:6]))' "$p")" \
    finv assemble --kind complex --xi C.txt -l 1 -N 7 -p "$p" --machine
done
# a false verdict: 1/7 at q^1 is no member of the level-3 lattice
{ printf 'level=3 weight=? prec=12 label=G\n0 0 0\n1 1/7 0\n'; printf '%s 0 0\n' $(seq 2 11); } > G.txt
{ printf 'level=3 weight=? prec=12 label=Z\n'; printf '%s 0 0\n' $(seq 0 11); } > Z.txt
expect 1 out line 'verdict: False' finv divcong G.txt Z.txt -N 3 -w 2
# Gtilde_2/7 carries 7 in its rows and is a member through the Gtilde
# direction; 1/49 at q^1 is no member
finv eis -N 3 -k 2 -p 12 --tilde --machine | python3 -c 'import sys
from fractions import Fraction
print(sys.stdin.readline(), end="")
for line in sys.stdin:
    n, *coords = line.split()
    print(n, *(Fraction(int(x), 7) for x in coords))' > W.txt
expect 0 out line 'verdict: True' finv divcong W.txt Z.txt -N 3 -w 2
{ printf 'level=3 weight=? prec=12 label=Q\n0 0 0\n1 1/49 0\n'; printf '%s 0 0\n' $(seq 2 11); } > Q.txt
expect 1 out line 'verdict: False' finv divcong Q.txt Z.txt -N 3 -w 2
# a level-5 user basis (written over the installed package) whose Ghat2
# carries q^3/7 puts 7, prime to N, in the span's denominators: without
# Gtilde, q^3/7 (D.txt) is a member through that entry, decided in the local
# case modulo 7, and q^3/7 + q^4/7 (N.txt) is not
mkdir U
python3 -c 'import sys
from fractions import Fraction
from finvariant.files import write_series
from finvariant.divcong import BasisEntry, build_basis
from finvariant.genus import g_hat
from finvariant.qseries import QSeries
gens = [(1, "Ghat1", g_hat(5, 1, 12)), (2, "Ghat2", g_hat(5, 2, 12))]
for e in build_basis(5, 2, 12, generators=gens, check_dims=False).entries:
    if e.label == "Ghat2":
        e = BasisEntry(2, e.series + QSeries(5, 12, [0, 0, 0, Fraction(1, 7)]), "Ghat2_q3")
    write_series(sys.stdout, e.series, e.weight, e.label)' > U/basis_N5_W2_P12.txt
{ printf 'level=5 weight=? prec=12 label=Y\n'; printf '%s 0 0 0 0\n' $(seq 0 11); } > Y.txt
# without a basis file, level 5 has no basis: a library refusal, exit 3, and
# the basis directory V is not created
expect 3 err whole 'error: no built-in generators for level 5; supply a basis file' finv divcong Y.txt Y.txt -N 5 -w 2 --basis V
{ printf 'level=5 weight=? prec=12 label=D\n'; printf '%s 0 0 0 0\n' 0 1 2
  printf '3 1/7 0 0 0\n'; printf '%s 0 0 0 0\n' $(seq 4 11); } > D.txt
{ printf 'level=5 weight=? prec=12 label=N\n'; printf '%s 0 0 0 0\n' 0 1 2
  printf '%s 1/7 0 0 0\n' 3 4; printf '%s 0 0 0 0\n' $(seq 5 11); } > N.txt
expect 0 out line 'verdict: True' finv divcong D.txt Y.txt -N 5 -w 2 --no-gtilde --basis U
expect 1 out line 'verdict: False' finv divcong N.txt Y.txt -N 5 -w 2 --no-gtilde --basis U
# uncommon coordinate forms read as Fraction reads them: B is G's 1/7 at q^1
# written 2/14, plus the constant 1/2 written 0.5 (a member through the
# weight-0 entry); 3/+4 is refused, naming its line, after a -0.5
{ printf 'level=3 weight=? prec=12 label=B\n0 0.5 0\n1 2/14 0  # 1/7, as in G.txt\n'
  printf '%s 0 0\n' $(seq 2 11); } > B.txt
expect 0 out line 'verdict: True' finv divcong G.txt B.txt -N 3 -w 2
{ printf 'level=3 weight=? prec=12 label=R\n0 -0.5 3/+4\n'; printf '%s 0 0\n' $(seq 1 11); } > R.txt
expect 3 err has "R.txt:2: bad rational '3/+4'" finv divcong R.txt Z.txt -N 3 -w 2
# an eps-block file: eps*Gtilde_2 is a member, eps at q^1 alone is not
{ printf 'level=3 weight=2 prec=12 label=F\n'; printf '%s 0 0\n' $(seq 0 11)
  finv eis -N 3 -k 2 -p 12 --tilde --machine | sed 's/ label=Gtilde_2$/ label=F.eps/'; } > E.txt
expect 0 out line 'verdict: True' finv divcong E.txt Z.txt -N 3 -w 2
{ printf 'level=3 weight=2 prec=12 label=F\n'; printf '%s 0 0\n' $(seq 0 11)
  printf 'level=3 weight=2 prec=12 label=F.eps\n0 0 0\n1 1 0\n'; printf '%s 0 0\n' $(seq 2 11); } > E.txt
expect 1 out line 'verdict: False' finv divcong E.txt Z.txt -N 3 -w 2
# an eps block folds only into the block right before it, when that is its
# own series block: stacked F, F.eps, F.eps.eps (q/7 and -q/7) and an orphan
# F.eps each exit 3 naming the refused block's header line
{ printf 'level=3 weight=2 prec=12 label=F\n'; printf '%s 0 0\n' $(seq 0 11)
  printf 'level=3 weight=2 prec=12 label=F.eps\n0 0 0\n1 1/7 0\n'; printf '%s 0 0\n' $(seq 2 11)
  printf 'level=3 weight=2 prec=12 label=F.eps.eps\n0 0 0\n1 -1/7 0\n'; printf '%s 0 0\n' $(seq 2 11); } > S.txt
{ printf 'level=3 weight=2 prec=12 label=F.eps\n0 0 0\n1 1/7 0\n'; printf '%s 0 0\n' $(seq 2 11); } > O.txt
for spec in "S.txt 27 F.eps.eps" "O.txt 1 F.eps"; do
  set -- $spec
  expect 3 err has "$1:$2: eps block '$3' does not follow its series block" finv divcong "$1" Z.txt -N 3 -w 2
done
# a lattice at prec 20 decides the prec-12 files below its own precision
expect 0 out line 'verdict: True' finv divcong F.txt F.txt -N 3 -w 2 -p 20
expect 1 out line 'verdict: False' finv divcong G.txt Z.txt -N 3 -w 2 -p 20
# a block short of coefficient lines names its header line, also as the last block
printf 'level=3 weight=? prec=4 label=T\n0 1 0\n1 2 0\n' > T.txt
expect 3 err has "T.txt:1: block 'T' has 2 coefficient lines, expected 4" finv divcong T.txt T.txt -N 3 -w 2
# a misspelt header key is refused, naming the header line; so is a key
# repeated after label=, since a label holds no whitespace
printf 'level=3 weight=? prec=2 lable=K\n0 1 0\n1 2 0\n' > K.txt
expect 3 err has "K.txt:1: unknown header key 'lable'" finv divcong K.txt K.txt -N 3 -w 2
finv eis -N 3 -k 2 -p 2 --machine | sed '1s/$/ weight=7/' > K.txt
expect 3 err has "K.txt:1: repeated header key 'weight'" finv divcong K.txt K.txt -N 3 -w 2
# the numeric genus oracle passes by default, agrees with the exact series at
# level 7 to x^8, and at level 105, the first Phi_N with a coefficient -2,
# where the exact side's zeta fold table agrees with the floating-point genus
expect 0 out has 'PASS at' finv oracle
expect 0 out last 'oracle_pass=true' finv oracle -N 7 -k 8 --machine
expect 0 out last 'oracle_pass=true' finv oracle -N 105 -k 4 -p 60 --machine
# p_4^2 at level 7 needs 10-byte slots: the series product's two-word path
expect 0 out line 'level=7 weight=8 prec=200 label=quaternionic_entry_3' finv ell -N 7 -k 8 -p 200 --quaternionic 3 --machine
# the weight-two congruence at the target shape, level 7 to q^1000
expect 0 out line 'congruence_mod_integral=true' finv g2 -N 7 -p 1000 --machine
expect 0 out whole "$(printf '%s\n' {B,C,D,E,F,G,H2,H4,K,N,O,P,Q,R,S,T}.txt U {W,X,Y,Z}.txt)" ls -A
