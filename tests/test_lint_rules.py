"""Tests for Layer 2 of repro.lint: the AST rules (REP001-REP005, REP008,
REP302, REP303), the engine with its prefix selection and inline
suppression, the reporters, the redaction helper and the ``repro lint``
CLI."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import api
from repro.lint import engine as lint_engine
from repro.lint.diagnostics import (
    Diagnostic,
    Severity,
    has_blocking,
    sort_diagnostics,
    worst_severity,
)
from repro.lint.engine import (
    LintContext,
    Rule,
    RuleVisitor,
    expand_selection,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    parse_suppressions,
    register,
    registered_rules,
)
from repro.lint.redact import redact_value
from repro.lint.report import (
    render,
    render_json,
    render_sarif,
    render_text,
    summarize,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

#: A path inside the comparator scope of REP002.
CORE = "src/repro/core/example.py"
#: A path outside every scoped rule.
PLAIN = "src/repro/io/example.py"


def rule_ids(findings):
    return sorted({d.rule for d in findings})


class TestRep001UnseededRandom:
    def test_global_random_call_is_flagged(self):
        source = "import random\n\ndef f(items):\n    random.shuffle(items)\n"
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP001"]
        assert findings[0].line == 4

    def test_legacy_numpy_global_is_flagged(self):
        source = "import numpy as np\n\nx = np.random.rand(3)\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP001"]

    def test_unseeded_default_rng_is_flagged(self):
        source = "import numpy as np\n\nrng = np.random.default_rng()\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP001"]

    def test_from_import_default_rng_is_flagged(self):
        source = (
            "from numpy.random import default_rng\n\nrng = default_rng()\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP001"]

    def test_none_seed_counts_as_unseeded(self):
        source = "import numpy as np\n\nrng = np.random.default_rng(None)\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP001"]

    def test_seeded_generators_are_clean(self):
        source = (
            "import random\n"
            "import numpy as np\n\n"
            "rng = np.random.default_rng(42)\n"
            "gen = np.random.Generator(np.random.PCG64(1))\n"
            "local = random.Random(7)\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_synthetic_module_is_exempt(self):
        source = "import random\n\nrandom.shuffle([1, 2])\n"
        path = "src/repro/datasets/synthetic.py"
        assert lint_source(source, path=path) == []


class TestRep002FloatEquality:
    VIOLATION = (
        "def rel(a, b):\n"
        "    x = float(a)\n"
        "    if x == float(b):\n"
        "        return 1\n"
        "    return 0\n"
    )

    def test_float_equality_in_core_is_flagged(self):
        findings = lint_source(self.VIOLATION, path=CORE)
        assert rule_ids(findings) == ["REP002"]
        assert len(findings) == 1  # one violation, one finding — no dupes
        assert findings[0].line == 3

    def test_float_literal_comparand_is_flagged(self):
        source = "def f(x):\n    return x == 0.5\n"
        assert rule_ids(lint_source(source, path=CORE)) == ["REP002"]

    def test_moo_paths_are_in_scope(self):
        assert rule_ids(
            lint_source(self.VIOLATION, path="src/repro/moo/pareto.py")
        ) == ["REP002"]

    def test_rule_is_scoped_to_comparator_code(self):
        assert lint_source(self.VIOLATION, path=PLAIN) == []

    def test_integer_equality_is_clean(self):
        source = "def f(a, b):\n    return len(a) == len(b)\n"
        assert lint_source(source, path=CORE) == []

    def test_isclose_is_clean(self):
        source = (
            "import math\n\n"
            "def f(a, b):\n"
            "    return math.isclose(float(a), float(b))\n"
        )
        assert lint_source(source, path=CORE) == []

    def test_nested_scope_bindings_do_not_leak(self):
        source = (
            "def outer():\n"
            "    def inner():\n"
            "        x = 0.5\n"
            "        return x\n"
            "    x = 1\n"
            "    return x == 1\n"
        )
        assert lint_source(source, path=CORE) == []


class TestRep003MutableDefault:
    def test_list_default_is_flagged(self):
        source = "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n"
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP003"]
        assert "'f'" in findings[0].message

    def test_keyword_only_dict_default_is_flagged(self):
        source = "def f(x, *, cache={}):\n    return cache\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP003"]

    def test_constructor_default_is_flagged(self):
        source = "def f(x, seen=set()):\n    return seen\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP003"]

    def test_none_and_tuple_defaults_are_clean(self):
        source = "def f(x, acc=None, pair=()):\n    return acc or list(pair)\n"
        assert lint_source(source, path=PLAIN) == []


class TestRep004UnorderedIteration:
    def test_for_loop_over_set_is_flagged(self):
        source = (
            "def f(values):\n"
            "    seen = set(values)\n"
            "    for v in seen:\n"
            "        print(v)\n"
        )
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP004"]
        assert len(findings) == 1
        assert all(d.severity is Severity.WARNING for d in findings)

    def test_comprehension_over_set_literal_is_flagged(self):
        source = "rows = [v for v in {1, 2, 3}]\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP004"]

    def test_list_materialization_is_flagged(self):
        source = "def f(values):\n    return list(set(values))\n"
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP004"]

    def test_sorted_iteration_is_clean(self):
        source = (
            "def f(values):\n"
            "    seen = set(values)\n"
            "    return sorted(seen)\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_set_comprehension_is_clean(self):
        # Building another set: no iteration order can escape.
        source = "def f(seen):\n    other = {v for v in set(seen)}\n    return other\n"
        assert lint_source(source, path=PLAIN) == []


class TestRep005AnonymizerContract:
    def test_missing_anonymize_is_flagged(self):
        source = (
            "class Broken(Anonymizer):\n"
            "    def describe(self):\n"
            "        return 'broken'\n"
        )
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP005"]
        assert "'Broken'" in findings[0].message

    def test_wrong_arity_is_flagged(self):
        source = (
            "class Bad(Anonymizer):\n"
            "    def anonymize(self, dataset):\n"
            "        return dataset\n"
        )
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP005"]
        assert "(self, dataset, hierarchies)" in findings[0].message

    def test_qualified_base_is_recognized(self):
        source = (
            "class Bad(base.Anonymizer):\n"
            "    pass\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP005"]

    def test_conforming_subclass_is_clean(self):
        source = (
            "class Fine(Anonymizer):\n"
            "    def anonymize(self, dataset, hierarchies):\n"
            "        return dataset\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_abstract_subclass_is_exempt(self):
        source = (
            "import abc\n\n"
            "class Partial(Anonymizer):\n"
            "    @abc.abstractmethod\n"
            "    def budget(self):\n"
            "        ...\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_unrelated_class_is_ignored(self):
        source = "class Widget(Base):\n    pass\n"
        assert lint_source(source, path=PLAIN) == []


class TestRep008RowwiseGeneralization:
    def test_for_loop_over_dataset_is_flagged(self):
        source = (
            "def decode(dataset, hierarchy, level):\n"
            "    out = []\n"
            "    for row in dataset:\n"
            "        out.append(hierarchy.generalize(row[0], level))\n"
            "    return out\n"
        )
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP008"]

    def test_comprehension_over_column_is_flagged(self):
        source = (
            "def decode(dataset, hierarchy, level):\n"
            "    return [hierarchy.generalize(v, level)"
            " for v in dataset.column('age')]\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP008"]

    def test_enumerate_wrapped_rows_are_flagged(self):
        source = (
            "def decode(table, hierarchy):\n"
            "    for i, row in enumerate(table.rows):\n"
            "        yield hierarchy.generalize(row[0], 1)\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP008"]

    def test_domain_loops_are_clean(self):
        # Looping a hierarchy's (tiny) leaf domain is the sanctioned idiom.
        source = (
            "def parents(taxonomy, level):\n"
            "    return [taxonomy.generalize(leaf, level)"
            " for leaf in taxonomy.leaves]\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_row_loop_without_generalize_is_clean(self):
        source = (
            "def widths(dataset):\n"
            "    return [len(row) for row in dataset]\n"
        )
        assert lint_source(source, path=PLAIN) == []

    def test_row_loop_in_engine_is_flagged(self):
        # The engine recodes through level gathers; a per-row loop
        # planted there is a regression.
        source = (
            "def recode_rowwise(dataset, hierarchy, level):\n"
            "    return [hierarchy.generalize(row[0], level)"
            " for row in dataset]\n"
        )
        path = "src/repro/anonymize/engine.py"
        assert rule_ids(lint_source(source, path=path)) == ["REP008"]

    def test_level_table_builder_is_exempt(self):
        source = (
            "def build(raw, hierarchy, level):\n"
            "    return [hierarchy.generalize(value, level) for value in raw]\n"
        )
        path = "src/repro/hierarchy/codes.py"
        assert lint_source(source, path=path) == []


def writer(body, imports=""):
    """A module whose ``f(p, text)`` runs ``body`` (one statement)."""
    return f"{imports}\n\ndef f(p, text):\n    {body}\n"


class TestRep302NonAtomicWrite:
    def test_bare_write_open_fires(self):
        source = writer('with open(p, "w") as handle:\n        handle.write(text)')
        findings = lint_source(source, path=PLAIN)
        assert rule_ids(findings) == ["REP302"]
        assert findings[0].line == 4

    @pytest.mark.parametrize(
        "call",
        [
            'p.open("w")',
            'p.open(mode="w")',
            'p.open("w", encoding="utf-8")',
            'Path(p).open("wb")',
            'self.path.open("x")',
        ],
    )
    def test_path_open_in_write_mode_fires(self, call):
        # A `.open` method takes the mode first, unlike the builtin.
        source = writer(f"handle = {call}", imports="from pathlib import Path")
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP302"]

    @pytest.mark.parametrize(
        "call, imports",
        [
            pytest.param('io.open(p, "w")', "import io", id="io.open"),
            pytest.param('os.fdopen(3, "wb")', "import os", id="os.fdopen"),
            pytest.param('gzip.open(p, "wt")', "import gzip", id="gzip.open"),
            pytest.param(
                'zipped.open(p, "wt")', "import gzip as zipped", id="module-alias"
            ),
            pytest.param(
                'gzopen(p, mode="wb")',
                "from gzip import open as gzopen",
                id="from-import",
            ),
        ],
    )
    def test_module_level_open_reads_the_second_argument(self, call, imports):
        source = writer(f"handle = {call}", imports=imports)
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP302"]

    @pytest.mark.parametrize("method", ["write_text", "write_bytes"])
    def test_write_text_fires(self, method):
        source = writer(f"Path(p).{method}(text)", imports="from pathlib import Path")
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP302"]

    @pytest.mark.parametrize("call", ['open(p, "a")', 'p.open("a")'])
    def test_append_mode_is_exempt(self, call):
        assert lint_source(writer(f"handle = {call}"), path=PLAIN) == []

    @pytest.mark.parametrize(
        "call",
        [
            "open(p)",
            'open(p, "rb")',
            'open(p, "r+")',
            "p.open()",
            'p.open("rb")',
            "os.open(p, os.O_RDONLY)",
            "p.open(text)",
        ],
    )
    def test_read_mode_is_exempt(self, call):
        source = writer(f"handle = {call}", imports="import os")
        assert lint_source(source, path=PLAIN) == []

    def test_sanctioned_module_is_exempt(self):
        source = (
            "import os\n\n"
            "def write(path, text):\n"
            '    with os.fdopen(os.open(path, 0), "w") as handle:\n'
            "        handle.write(text)\n"
        )
        assert lint_source(source, path=PLAIN) != []
        path = "src/repro/utility/atomic.py"
        assert lint_source(source, path=path) == []


class TestRep303TempFilePlacement:
    SOURCE = (
        "import os\n"
        "import tempfile\n\n"
        "def f(target, data):\n"
        "    fd, tmp = tempfile.mkstemp({args})\n"
        "    try:\n"
        "        os.write(fd, data)\n"
        "    finally:\n"
        "        os.close(fd)\n"
        "    os.replace(tmp, target)\n"
    )

    def test_mkstemp_outside_target_dir_fires(self):
        findings = lint_source(self.SOURCE.format(args=""), path=PLAIN)
        assert rule_ids(findings) == ["REP303"]
        assert "dir=" in findings[0].message
        assert findings[0].line == 5

    def test_guarded_same_dir_pattern_is_clean(self):
        source = self.SOURCE.format(args="dir=os.path.dirname(target)")
        assert lint_source(source, path=PLAIN) == []

    def test_aliased_imports_are_resolved(self):
        source = (
            "from os import replace\n"
            "from tempfile import NamedTemporaryFile as ntf\n\n"
            "def f(target):\n"
            "    handle = ntf(delete=False)\n"
            "    replace(handle.name, target)\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP303"]

    def test_module_without_replace_is_clean(self):
        source = "import tempfile\n\nfd, tmp = tempfile.mkstemp()\n"
        assert lint_source(source, path=PLAIN) == []

    def test_sanctioned_module_is_exempt(self):
        source = self.SOURCE.format(args="")
        assert lint_source(source, path="src/repro/utility/atomic.py") == []

    def test_rep3_prefix_selects_both_atomic_write_rules(self):
        assert expand_selection(["REP3"]) == ["REP302", "REP303"]


class TestEngine:
    def test_syntax_error_becomes_rep000(self):
        findings = lint_source("def broken(:\n", path=PLAIN)
        assert rule_ids(findings) == ["REP000"]
        assert findings[0].severity is Severity.ERROR

    def test_all_five_rules_are_registered(self):
        assert set(registered_rules()) >= {
            "REP001", "REP002", "REP003", "REP004", "REP005",
        }

    def test_select_runs_only_named_rules(self):
        source = (
            "import random\n\n"
            "def f(x, acc=[]):\n"
            "    random.shuffle(acc)\n"
            "    return acc\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP001", "REP003"]
        selected = lint_source(source, path=PLAIN, select=["REP003"])
        assert rule_ids(selected) == ["REP003"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="REP999"):
            lint_source("x = 1\n", path=PLAIN, select=["REP999"])

    def test_lint_paths_walks_directories(self, tmp_path):
        core = tmp_path / "core"
        core.mkdir()
        (core / "compare.py").write_text(
            "def f(x):\n    return x == 0.5\n", encoding="utf-8"
        )
        (tmp_path / "util.py").write_text("VALUE = 1\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert rule_ids(findings) == ["REP002"]
        assert findings[0].path.endswith("compare.py")

    def test_hidden_and_cache_dirs_are_skipped(self, tmp_path):
        (tmp_path / ".venv").mkdir()
        (tmp_path / ".venv" / "bad.py").write_text(
            "def f(x, acc=[]):\n    return acc\n", encoding="utf-8"
        )
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "bad.py").write_text(
            "def f(x, acc=[]):\n    return acc\n", encoding="utf-8"
        )
        (tmp_path / "good.py").write_text("VALUE = 1\n", encoding="utf-8")
        assert [p.name for p in iter_python_files([tmp_path])] == ["good.py"]
        assert lint_paths([tmp_path]) == []

    def test_lint_file_reads_from_disk(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def f(x, acc=[]):\n    return acc\n", encoding="utf-8")
        findings = lint_file(target)
        assert rule_ids(findings) == ["REP003"]

    def test_custom_rule_via_visitor(self):
        class _PrintVisitor(RuleVisitor):
            """Reports every call to print()."""

            def visit_Call(self, node):
                """Flag print() calls."""
                func = node.func
                if getattr(func, "id", "") == "print":
                    self.report(node, "print() in library code")
                self.generic_visit(node)

        @register
        class PrintRule(Rule):
            """Test-only rule built on RuleVisitor dispatch."""

            id = "REP901"
            title = "no print in library code"
            severity = Severity.WARNING

            def check(self, context):
                """Run the visitor over the module."""
                yield from _PrintVisitor(self, context).run(context.tree)

        try:
            findings = lint_source("print('hi')\n", path=PLAIN)
            assert rule_ids(findings) == ["REP901"]
            with pytest.raises(ValueError, match="duplicate"):
                register(PrintRule)
        finally:
            lint_engine._REGISTRY.pop("REP901", None)

    def test_context_parts_are_posix(self):
        import ast

        context = LintContext(path=CORE, tree=ast.parse(""), source="")
        assert "core" in context.parts


class TestSelection:
    def test_prefix_expands_to_family(self):
        assert expand_selection(["REP0"]) == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP008",
        ]

    def test_exact_id_still_selects_one(self):
        assert expand_selection(["REP302"]) == ["REP302"]

    def test_unmatched_selector_raises(self):
        with pytest.raises(ValueError, match="REP9"):
            expand_selection(["REP9"])

    def test_select_one_rule_only(self):
        source = (
            "import random\n\n"
            "def f(path, text, acc=[]):\n"
            "    random.shuffle(acc)\n"
            "    path.write_text(text)\n"
        )
        findings = lint_source(source, path=PLAIN, select=["REP302"])
        assert rule_ids(findings) == ["REP302"]


#: One mutable default (REP003) and one unseeded shuffle (REP001) on the
#: same line, so a suppression can name either.
TWO_FINDINGS = (
    "import random\n\n"
    "def f(x, acc=[]): random.shuffle(acc)\n"
)


class TestInlineSuppression:
    def test_disable_comment_suppresses_on_its_line(self):
        source = TWO_FINDINGS.replace(
            "random.shuffle(acc)\n",
            "random.shuffle(acc)  # lint: disable=REP001, REP003\n",
        )
        assert lint_source(source, path=PLAIN) == []

    def test_disable_is_line_scoped(self):
        source = (
            "# lint: disable=REP003\n"
            "def f(x, acc=[]):\n"
            "    return acc\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP003"]

    def test_disable_only_names_that_rule(self):
        source = TWO_FINDINGS.replace(
            "random.shuffle(acc)\n", "random.shuffle(acc)  # lint: disable=REP001\n"
        )
        assert rule_ids(lint_source(source, path=PLAIN)) == ["REP003"]

    def test_multiple_ids_in_one_comment(self):
        suppressions, bad = parse_suppressions(
            "x = 1  # lint: disable=REP001, REP003\n"
        )
        assert suppressions == {1: {"REP001", "REP003"}}
        assert bad == []

    def test_unknown_id_is_a_rep006_finding(self):
        source = "x = 1  # lint: disable=REP999\n"
        findings = lint_source(source, select=["REP0"])
        assert [d.rule for d in findings] == ["REP006"]
        assert "REP999" in findings[0].message

    def test_suppression_applies_to_layer2_rules_too(self):
        source = "def f(x, acc=[]):  # lint: disable=REP003\n    return acc\n"
        assert lint_source(source) == []


class TestRedactValue:
    def test_output_contains_no_raw_content(self):
        secret = "flu-diagnosis-47906"
        redacted = redact_value(secret)
        assert secret not in redacted
        assert "47906" not in redacted

    def test_output_is_stable_and_correlatable(self):
        assert redact_value("x") == redact_value("x")
        assert redact_value("x") != redact_value("y")

    def test_label_and_type_survive(self):
        redacted = redact_value(29, label="cell")
        assert redacted.startswith("<cell type=int len=2 ")


class TestDiagnosticsAndReport:
    def test_format_includes_location_and_hint(self):
        diagnostic = Diagnostic(
            "REP003", "bad default", Severity.ERROR,
            path="a.py", line=3, column=9, hint="use None",
        )
        assert diagnostic.format() == (
            "a.py:3:9: REP003 [error] bad default (hint: use None)"
        )

    def test_artifact_findings_format_without_line(self):
        diagnostic = Diagnostic("ART001", "broken chain", path="hierarchy:age")
        assert diagnostic.format() == (
            "hierarchy:age: ART001 [error] broken chain"
        )

    def test_sort_is_by_path_then_line(self):
        early = Diagnostic("REP001", "m", path="a.py", line=1)
        late = Diagnostic("REP001", "m", path="a.py", line=9)
        other = Diagnostic("REP001", "m", path="b.py", line=1)
        assert sort_diagnostics([other, late, early]) == [early, late, other]

    def test_worst_severity_and_blocking_policy(self):
        warning = Diagnostic("REP004", "w", Severity.WARNING)
        info = Diagnostic("ART004", "i", Severity.INFO)
        assert worst_severity([]) is None
        assert worst_severity([info, warning]) is Severity.WARNING
        assert not has_blocking([info, warning])
        assert has_blocking([info, warning], strict=True)
        assert not has_blocking([info], strict=True)

    def test_render_text_summary_line(self):
        text = render_text([Diagnostic("REP003", "bad default", path="a.py")])
        assert text.endswith("1 finding(s): 1 error(s), 0 warning(s), 0 info")

    def test_render_json_is_parseable(self):
        document = json.loads(
            render_json([Diagnostic("REP003", "bad default", path="a.py")])
        )
        assert document["summary"] == {"error": 1, "warning": 0, "info": 0}
        assert document["diagnostics"][0]["rule"] == "REP003"

    def test_render_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            render([], format="xml")

    def test_summarize_counts_all_severities(self):
        counts = summarize([Diagnostic("X", "m", Severity.INFO)])
        assert counts == {"error": 0, "warning": 0, "info": 1}

    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(p, text):\n    p.write_text(text)\n", encoding="utf-8"
        )
        main(["lint", str(tmp_path), "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (rule,) = run["tool"]["driver"]["rules"]
        assert rule["id"] == "REP302"
        assert rule["shortDescription"]["text"] == "non-atomic durable write"
        result = run["results"][0]
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_sarif_info_maps_to_note(self):
        log = json.loads(
            render_sarif(
                [
                    Diagnostic(
                        rule="REP000",
                        message="m",
                        severity=Severity.INFO,
                        path="x.py",
                        line=1,
                    )
                ]
            )
        )
        assert log["runs"][0]["results"][0]["level"] == "note"


class TestLintCli:
    def test_violations_exit_1(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def f(x, acc=[]):\n    return acc\n", encoding="utf-8"
        )
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out

    def test_clean_tree_exits_0(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_warnings_block_only_under_strict(self, tmp_path, capsys):
        (tmp_path / "warn.py").write_text(
            "def f(values):\n"
            "    seen = set(values)\n"
            "    for v in seen:\n"
            "        print(v)\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path)]) == 0
        assert main(["lint", str(tmp_path), "--strict"]) == 1
        assert "REP004" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def f(x, acc=[]):\n    return acc\n", encoding="utf-8"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["error"] == 1

    def test_select_filters_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\n\n"
            "def f(x, acc=[]):\n"
            "    random.shuffle(acc)\n"
            "    return acc\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path), "--select", "REP001"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out and "REP003" not in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path), "--select", "NOPE"]) == 2
        assert "NOPE" in capsys.readouterr().out

    def test_retired_rule_family_exits_2(self, capsys):
        # A stale CI selector for a removed family must fail loudly.
        assert main(["lint", str(REPO_SRC), "--select", "REP2"]) == 2
        assert "unknown rule id" in capsys.readouterr().out

    def test_default_strict_run_flags_non_atomic_writes(self, tmp_path, capsys):
        (tmp_path / "store.py").write_text(
            "def save(path, text):\n    path.write_text(text)\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path), "--strict"]) == 1
        assert "REP302" in capsys.readouterr().out

    def test_select_narrows_findings(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(path, text, acc=[]):\n"
            "    handle = open(path, 'w')\n"
            "    handle.write(text)\n",
            encoding="utf-8",
        )
        assert main(["lint", str(tmp_path), "--select", "REP302"]) == 1
        out = capsys.readouterr().out
        assert "REP302" in out and "REP003" not in out

    def test_suppressed_fixture_is_clean(self, tmp_path, capsys):
        fixture = tmp_path / "waived.py"
        fixture.write_text("def f(x, acc=[]):\n    return acc\n", encoding="utf-8")
        assert main(["lint", str(fixture), "--select", "REP003"]) == 1
        fixture.write_text(
            "def f(x, acc=[]):  # lint: disable=REP003\n    return acc\n",
            encoding="utf-8",
        )
        assert main(["lint", str(fixture), "--select", "REP003"]) == 0

    def test_bad_suppression_id_exits_2_under_strict(self, tmp_path, capsys):
        fixture = tmp_path / "typo.py"
        fixture.write_text("x = 1  # lint: disable=REP9999\n", encoding="utf-8")
        assert main(["lint", str(fixture)]) == 0
        assert main(["lint", str(fixture), "--strict"]) == 2
        assert "REP006" in capsys.readouterr().out

    def test_nonexistent_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main(["lint", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().out

    def test_artifacts_only_run_is_clean(self, capsys):
        assert main(["lint", "--no-code", "--artifacts"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_repo_source_tree_is_strict_clean(self, capsys):
        assert main(["lint", str(REPO_SRC), "--strict"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_repo_src_is_clean_under_rep3_strict(self, capsys):
        assert main(["lint", str(REPO_SRC), "--select", "REP3", "--strict"]) == 0

    def test_repo_src_has_zero_rep3_waivers(self):
        waived = [
            path
            for path in REPO_SRC.rglob("*.py")
            if "disable=REP30" in path.read_text(encoding="utf-8")
        ]
        assert waived == []


class TestApiSurface:
    def test_summarize_rules_covers_every_rep_rule(self):
        summary = api.summarize_rules()
        for rule_id in (
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP302", "REP303",
        ):
            assert summary[rule_id]["title"]
            assert summary[rule_id]["severity"] in {"error", "warning", "info"}

    def test_select_artifact_errors_filters(self):
        error = Diagnostic("ART001", "e", Severity.ERROR)
        warning = Diagnostic("ART002", "w", Severity.WARNING)
        assert api.select_artifact_errors([warning, error]) == [error]
