"""The CLI's data commands keep their seed-42 outputs byte for byte.

`tests/data/golden_cli_seed42.sha256` holds one `<output>=<sha256>` line
per output of the commands `_run_commands` runs, in a fresh directory, on
the seed-42 synth splits (`casener synth --seed 42`):

    casener augment --input train.conll --output train3x.conll
    casener truecase --model tc.bin --fit train.conll
    casener truecase --model tc.bin --input lower.conll
    casener train --train train.conll --model base.crf
    casener tag --model base.crf --input test.conll --output pred.conll
    casener tag --model base.crf --input lower.conll --truecaser tc.bin
    casener eval --gold test.conll --pred pred.conll
    casener eval --gold test.conll --pred <the tag --truecaser output>

`lower.conll` is the test split lowercased (`make_variant`).  An output
is a command's stdout (`<command>.stdout`) or a file it writes
(`<command>.<file>`).  The synth files and the truecaser bytes are pinned
in `test_synth.py`, and model bytes depend on the CPU (README "Saved
files"), so none of those is hashed here.  A change that means to move an
output regenerates the file with `_run_commands`.
"""

import hashlib
from pathlib import Path

from casener.cli import EXIT_OK, main
from casener.corpus import read_conll_file, write_conll_file
from casener.transforms import CaseVariant, make_variant

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_cli_seed42.sha256"


def _run_commands(capsys) -> dict[str, str]:
    """Run the commands above in the working directory: each output's
    name -> the sha256 of its bytes."""
    outputs = {}

    def run(name: str, argv: list[str], written: str | None = None) -> str:
        assert main(argv) == EXIT_OK, name
        out = capsys.readouterr().out
        outputs[f"{name}.stdout"] = out.encode("utf-8")
        if written is not None:
            outputs[f"{name}.{written}"] = Path(written).read_bytes()
        return out

    assert main(["synth", "--seed", "42", "--out-train", "train.conll",
                 "--out-test", "test.conll"]) == EXIT_OK
    write_conll_file(make_variant(read_conll_file("test.conll"),
                                  CaseVariant.LOWER), "lower.conll")
    capsys.readouterr()
    run("augment", ["augment", "--input", "train.conll",
                    "--output", "train3x.conll"], "train3x.conll")
    run("truecase-fit", ["truecase", "--model", "tc.bin",
                         "--fit", "train.conll"])
    run("truecase-input", ["truecase", "--model", "tc.bin",
                           "--input", "lower.conll"])
    run("train", ["train", "--train", "train.conll", "--model", "base.crf"])
    run("tag", ["tag", "--model", "base.crf", "--input", "test.conll",
                "--output", "pred.conll"], "pred.conll")
    Path("recased.conll").write_text(
        run("tag-truecaser", ["tag", "--model", "base.crf", "--input",
                              "lower.conll", "--truecaser", "tc.bin"]),
        "utf-8")
    run("eval", ["eval", "--gold", "test.conll", "--pred", "pred.conll"])
    run("eval-truecaser", ["eval", "--gold", "test.conll",
                           "--pred", "recased.conll"])
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()}


def test_seed42_cli_outputs_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = _run_commands(capsys)
    expected = dict(line.split("=") for line in
                    GOLDEN.read_text("utf-8").splitlines())
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if digests.get(name) != expected.get(name))
    assert not moved, f"outputs moved: {', '.join(moved)}"
