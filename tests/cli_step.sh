# The command line through sys.argv: the checks that need a process of
# their own.  Everything a call of amalgam.cli.main shows in process is
# tested in process instead.  Run from the checkout, with a scratch
# directory for the files the commands write:
#
#     bash tests/cli_step.sh DIR
#
# tests/test_ci_step.py runs it in tier-1.
set -eo pipefail
export PYTHONPATH="$PWD/src"
bench="$PWD/bench"
cd "${1:?usage: bash tests/cli_step.sh DIR}"

# The exit code of `amalgam ARGS...` is WANT.
expect() {
  want=$1; shift
  code=0; python -m amalgam.cli "$@" > /dev/null || code=$?
  echo "amalgam $* -> exit $code (expected $want)"
  [ "$code" = "$want" ]
}

# `amalgam ARGS...` exits 2 with one short error line that holds TEXT.
refuses() {
  text=$1; shift
  code=0; python -m amalgam.cli "$@" > /dev/null 2> err.txt || code=$?
  cat err.txt
  echo "amalgam $* -> exit $code (expected 2)"
  [ "$code" = 2 ] && [ "$(wc -l < err.txt)" = 1 ] && [ "$(wc -c < err.txt)" -lt 300 ] &&
    grep -q '^error: ' err.txt && grep -Fq -- "$text" err.txt
}

# The entry point, and each command family's exit code.  Each --out file is
# read back by another process.
expect 0 --help
expect 1 check --format structured boat
expect 0 witness boat --out w.json
expect 1 oracle w.json
expect 0 gen diagram span --out d.json
expect 0 validate d.json
expect 0 cocone span d.json
segment='"shape": {"type": "poset", "elements": ["a", "b"], "covers": [["a", "b"]]}, "carriers": {"a": ["x", "y"], "b": ["u", "v"]}'
echo "{\"type\": \"diagram\", $segment, \"actions\": {\"a->b\": [[\"x\", \"u\"], [\"y\", \"u\"]]}}" > noninj.json
refuses "error: action of a->b is not injective" validate noninj.json
echo '{"type": "poset", "elements": ["a", "\ud800"], "covers": [["a", "\ud800"]]}' > surrogate.json
echo "previous content" > kept.txt
cp kept.txt kept_before.txt
refuses "elements may not hold a lone surrogate" check surrogate.json --out kept.txt
cmp kept_before.txt kept.txt

# A refuted verdict's witness: its zigzag joins the separated points inside
# the component, and the region holds the component and the minimal element.
expect 1 check --format structured nonforest6 --out v.json
expect 0 gen nonforest 30 --seed 0 --out n.json
expect 1 check --format structured n.json --out nv.json
python -c '
import json, sys
for path in sys.argv[1:]:
    w = json.load(open(path))["evidence"]["witness"]
    z, c, r = w["zigzag"], set(w["component"]), set(w["region"])
    assert [z[0], z[-1]] == w["separated"] and set(z) <= c and c | {w["minimal_element"]} <= r, w
' v.json nv.json

# Large verdicts, re-checked by the benchmark's verifier, and a 400-step
# explanation read through a pipe.
python -c 'import json; e = [f"c{i}" for i in range(400)]; print(json.dumps({"type": "poset", "elements": e, "covers": [[a, b] for a, b in zip(e, e[1:])]}))' > chain400.json
expect 0 gen forest 40 --seed 0 --out forest40.json
for shape in chain400.json forest40.json; do
  expect 0 check --format structured "$shape" --out "verdict-$shape"
done
python -B -c '
import json, sys
sys.path.insert(0, sys.argv[1])
from verify import verify
for shape in sys.argv[2:]:
    doc, verdict = (json.load(open(p)) for p in (shape, "verdict-" + shape))
    reason = verify("verdict", doc, 0, verdict)
    assert reason is None, (shape, reason)
' "$bench" chain400.json forest40.json
adjoins=$(python -m amalgam.cli explain chain400.json | grep -c '^ *adjoin ')
test "$adjoins" = 400

# The same bytes under two hash seeds: every corpus entry, and two
# categories given with their compose entries reversed, through four
# commands, each written with --out.
for seed in 0 12345; do
  PYTHONHASHSEED=$seed python -c '
import contextlib, io, json, os, sys
from amalgam.cli import main
from amalgam.corpus import resolve

out = sys.argv[1]
os.mkdir(out)
inputs = sorted(name[:-5] for name in os.listdir(os.path.dirname(resolve("span"))))
for name in ("bowtie", "inverse_iso_pair"):
    doc = json.load(open(resolve(name)))
    doc["compose"] = doc.get("compose", [])[::-1]
    with open(f"reversed-{name}.json", "w") as f:
        json.dump(doc, f)
    inputs.append(f"reversed-{name}.json")
commands = {"check": ["check", "--format", "structured"], "explain": ["explain"],
            "witness": ["witness"], "diagram": ["gen", "diagram", "--seed", "1"]}
with open(os.path.join(out, "exit-codes.txt"), "w") as log:
    for name in inputs:
        for label, command in commands.items():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([*command, name, "--out", os.path.join(out, f"{name}.{label}")])
            print(code, *command, name, file=log)
            log.write(err.getvalue())
' "seed-$seed"
done
diff -r seed-0 seed-12345
for name in bowtie inverse_iso_pair; do
  cmp "seed-0/$name.check" "seed-0/reversed-$name.json.check"
done
expect 1 oracle seed-0/bowtie.witness
