"""The public API, pinned in one table.

The names in `coxlen.__all__`, the parameters and defaults of every public
callable (each exported function and class, and each public method of an
exported class) and the fields of every record in the package (the
`__slots__` of each `_record.Record` class) are compared with the tables
below.  A parameter, field or name cannot be added
or removed without editing these tables, and each such edit is a change to
the behaviour contract that CHANGES.md records.
"""

import ast
import collections
import enum
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import coxlen
from coxlen._record import Record

PUBLIC_NAMES = [
    "AvoidanceCertificate", "CoxeterMatrix", "ExactScalar", "FreeCoxeterWord",
    "GramMatrix", "GroupElement", "GrowthRecord", "Kind", "QuasimorphismCert",
    "RealCyclotomicField", "ReflLenResult", "Reflection", "ReflenProtocol",
    "TitsGroup", "TriangleModel", "TypeVerdict", "WarpProfile",
    "affine_bound_experiment", "build_certificate", "build_triangle_model",
    "canonical_key", "carter_length_finite", "certify_lower_bound",
    "classify_component", "classify_group", "compute_short_elements",
    "congruence_search", "counting_qm", "defect_window",
    "enumerate_reflections", "evaluate_word", "exact_reflection_length",
    "fixed_space_codim", "gram_matrix", "growth_profile",
    "homogenize", "irreducible_components", "minimal_nonaffine_subsets",
    "parse_coxeter_matrix", "reduce_word", "reflen_ball", "reflen_element",
    "tits_generator", "two_pi_certificate", "warp_profile",
]

SIGNATURES = {
    "AvoidanceCertificate": ("(h, prime, short_sets, kernel_min_displacement, "
                             "per_cusp_margin, margin_interval)"),
    "CoxeterMatrix": "(rank, entries)",
    "CoxeterMatrix.make": "(entries)",
    "CoxeterMatrix.submatrix": "(self, subset)",
    "CoxeterMatrix.conductor": "(self)",
    "ExactScalar": "(field, num, den=1)",
    "ExactScalar.is_zero": "(self)",
    "ExactScalar.sign": "(self)",
    "ExactScalar.as_fraction": "(self)",
    "FreeCoxeterWord": "(letters, k)",
    "FreeCoxeterWord.inverse": "(self)",
    "GramMatrix": "(cm, field, rows)",
    "GroupElement": "(gram, packed, word=None)",
    "GroupElement.is_identity": "(self)",
    "GrowthRecord": "(base_word, powers)",
    "QuasimorphismCert": ("(k, pattern, raw_defect, window, "
                          "homogeneous_defect, generator_max, constant, "
                          "stabilized, defect_pair)"),
    "QuasimorphismCert.pattern_text": "(self)",
    "QuasimorphismCert.phi": "(self, g)",
    "QuasimorphismCert.bound_for": "(self, g, power=1)",
    "QuasimorphismCert.lower_bound_for_word": "(self, cm, word)",
    "RealCyclotomicField": "(N)",
    "RealCyclotomicField.refine_theta": "(self, width)",
    "RealCyclotomicField.scalar": "(self, num, den=1)",
    "RealCyclotomicField.from_rational": "(self, q)",
    "RealCyclotomicField.dickson": "(self, k)",
    "RealCyclotomicField.mul": "(self, a, b)",
    "RealCyclotomicField.sign_of": "(self, num, den)",
    "ReflLenResult": ("(element, upper, lower, status, witness, depth_used, "
                      "len_s, lower_sources=())"),
    "Reflection": "(element, root, depth, word)",
    "ReflenProtocol": "(d_cap=6, node_cap=5000000, use_exact_solver=True)",
    "TitsGroup": "(cm)",
    "TitsGroup.element": "(self, word)",
    "TitsGroup.right_descents": "(self, g)",
    "TitsGroup.reduced_word": "(self, g)",
    "TriangleModel": "(p, q, cm, generators, cusps)",
    "TriangleModel.element": "(self, word)",
    "TypeVerdict": "(kind, components, minimal_nonaffine, signature)",
    "WarpProfile": "(L, r_T, bridge, grid, f, fp, fpp, attempts)",
    "affine_bound_experiment": "(cm, L, protocol=None)",
    "build_certificate": "(k, pattern, window=None)",
    "build_triangle_model": "(p, q)",
    "canonical_key": "(g)",
    "carter_length_finite": "(cm, word)",
    "certify_lower_bound": "(cert, g, K)",
    "classify_component": "(cm, subset)",
    "classify_group": "(cm)",
    "compute_short_elements": "(model, s, h)",
    "congruence_search": "(model, h, prime_cap=100)",
    "counting_qm": "(w, g)",
    "defect_window": "(w, B)",
    "enumerate_reflections": "(gram, depth_cap, cap=5000000)",
    "evaluate_word": "(gens, word)",
    "exact_reflection_length": "(group, g, cap=5000000, reduced_word=None)",
    "fixed_space_codim": "(g)",
    "gram_matrix": "(cm)",
    "growth_profile": "(cm, base_word, K, protocol=None, certificates=())",
    "homogenize": "(w, g)",
    "irreducible_components": "(cm)",
    "minimal_nonaffine_subsets": "(cm)",
    "parse_coxeter_matrix": "(text)",
    "reduce_word": "(letters, k)",
    "reflen_ball": "(cm, L, D, node_cap=5000000)",
    "reflen_element": "(cm, word, protocol=None, certificates=())",
    "tits_generator": "(gram, s)",
    "two_pi_certificate": "(model, cert, s)",
    "warp_profile": "(L, r_T=None, grid=512)",
}

RECORD_FIELDS = {
    "coxeter.CoxeterMatrix": "rank entries",
    "coxeter.GramMatrix": "cm field rows",
    "coxeter.TypeVerdict": "kind components minimal_nonaffine signature",
    "filling.PlaneIsometry": "m reversing",
    "filling.CuspData": "s vertex conjugator gen_indices mirror_offsets width",
    "filling.TriangleModel": "p q cm generators cusps",
    "filling.ShortElement": "word kind parameter displacement matrix",
    "filling.AvoidanceCertificate": ("h prime short_sets kernel_min_displacement "
                                     "per_cusp_margin margin_interval"),
    "quasimorphism.FreeCoxeterWord": "letters k",
    "quasimorphism.DefectResult": "pattern window value pair stabilized",
    "quasimorphism.QuasimorphismCert": ("k pattern raw_defect window "
                                        "homogeneous_defect generator_max "
                                        "constant stabilized defect_pair"),
    "reflen.ReflenProtocol": "d_cap node_cap use_exact_solver",
    "reflen.ReflLenResult": ("element upper lower status witness depth_used "
                             "len_s lower_sources"),
    "reflen.GrowthRecord": "base_word powers",
    "reflen.BallResult": "cm L D results",
    "reflen.AffineBoundRecord": ("cm L euclidean_dim bound max_value "
                                 "attained value_counts ball_size"),
    "tits.Reflection": "element root depth word",
    "warp.BridgeSpec": "r_a r_b knots base_value base_slope",
    "warp.WarpProfile": "L r_T bridge grid f fp fpp attempts",
}


def _bare(fn):
    """The signature without annotations: names, kinds and defaults."""
    sig = inspect.signature(fn)
    return str(sig.replace(return_annotation=sig.empty, parameters=[
        p.replace(annotation=p.empty) for p in sig.parameters.values()]))


def test_public_names_are_pinned():
    assert coxlen.__all__ == PUBLIC_NAMES


def test_public_signatures_are_pinned():
    seen = {}
    for name in coxlen.__all__:
        obj = getattr(coxlen, name)
        if inspect.isclass(obj) and issubclass(obj, enum.Enum):
            continue
        seen[name] = _bare(obj)
        if inspect.isclass(obj):
            for attr, value in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, (classmethod, staticmethod))):
                    seen[name + "." + attr] = _bare(getattr(obj, attr))
    assert seen == SIGNATURES


def test_dataclass_fields_are_pinned():
    # the records were dataclasses; the table pins their fields as before
    seen = {}
    for info in pkgutil.iter_modules(coxlen.__path__):
        module = importlib.import_module("coxlen." + info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, Record) and obj is not Record
                    and obj.__module__ == module.__name__):
                seen[info.name + "." + name] = " ".join(
                    slot for slot in obj.__slots__ if slot != "__dict__")
    assert seen == RECORD_FIELDS


def test_records_compare_and_hash_by_their_fields():
    from coxlen import (CoxeterMatrix, ReflLenResult, enumerate_reflections,
                        gram_matrix, parse_coxeter_matrix, reflen_element)

    cm = CoxeterMatrix.make(((1, 3), (3, 1)))
    twin = parse_coxeter_matrix("rank 2; m12=3")
    assert cm is not twin and cm == twin and hash(cm) == hash(twin)
    assert cm != CoxeterMatrix.make(((1, 4), (4, 1))) and cm != (2, cm.entries)
    assert repr(cm) == "CoxeterMatrix(rank=2, entries=((1, 3), (3, 1)))"

    once, again = (enumerate_reflections(gram_matrix(cm), 1) for _ in range(2))
    assert once == again and [hash(r) for r in once] == [hash(r) for r in again]
    assert repr(once[-1]).startswith("Reflection(element=")
    assert repr(once[-1]).endswith(", depth=1, word=(1, 0, 1))")

    res = reflen_element(cm, (0, 1))
    copy = ReflLenResult(res.element, res.upper, res.lower, res.status, res.witness,
                         res.depth_used, res.len_s, res.lower_sources)
    assert copy is not res and copy == res and hash(copy) == hash(res)
    assert repr(res) == ("ReflLenResult(element=%r, upper=2, lower=2, status='Exact', "
                         "witness=%r, depth_used=None, len_s=2, lower_sources=%r)"
                         % (res.element, res.witness, res.lower_sources))


def test_start_up_imports_no_unused_machinery(tmp_path):
    # `dataclasses` brings `inspect`, `ast` and `dis`, and `hashlib` OpenSSL;
    # importing the package and its CLI adds none of them, and the reflen
    # ball, whose CSV digests its keys, brings `hashlib` when it runs
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import coxlen, coxlen.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))\n"
            "coxlen.cli.main(['reflen', '--inline', 'rank 2; m12=3', '-L', '1', '-D', '0',\n"
            "                 '--output', sys.argv[1]])\n"
            "print('hashlib' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxlen.__file__)))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ball.csv")],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "[]\nTrue\n", "")
    assert (tmp_path / "ball.csv").exists()


def _unused_imports(source):
    """Names a module imports and never reads; a name listed in `__all__`
    counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_check_sees_an_unused_name():
    assert _unused_imports("import math\nfrom fractions import Fraction\nmath.pi\n") \
        == ["Fraction"]


def _names_read(tree):
    reads = collections.Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            reads[n.id] += 1
        elif isinstance(n, ast.Attribute):
            reads[n.attr] += 1
        elif isinstance(n, ast.alias):
            reads[n.name] += 1
    return reads


def _unreferenced_private_functions(source, package_sources):
    """Module-level `_private` functions of `source` that no code in the
    package reads outside the function's own body."""
    reads = sum((_names_read(ast.parse(text)) for text in package_sources),
                collections.Counter())
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")
            and reads[node.name] == _names_read(node)[node.name]]


def test_unreferenced_private_function_check_sees_an_orphan():
    source = ("def _used(x):\n    return x\n\n"
              "def _orphan(f):\n    return _orphan(f[1:]) if f else []\n\n"
              "def public():\n    return _used(1)\n")
    other = "from m import _elsewhere\n"
    assert _unreferenced_private_functions(source, [source, other]) == ["_orphan"]


def _assert_lines(source):
    """Lines of the `assert` statements of `source`: `python -O` drops them,
    so a check of the package is an explicit raise instead."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_check_sees_an_assert():
    assert _assert_lines("def f(x):\n    assert x > 0\n    return x\n") == [2]


def _exact_scalar_lines(source):
    """Lines of `source` that name ExactScalar: a name read or bound, an
    attribute, an import or a definition."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if "ExactScalar" in (getattr(n, "id", None), getattr(n, "attr", None),
                                 getattr(n, "name", None))]


def test_exact_scalar_check_sees_every_spelling():
    source = ("from .exactfield import ExactScalar, mul\n"
              "import coxlen.exactfield as ef\n"
              "x = ef.ExactScalar\n"
              "'ExactScalar in a string is prose'\n"
              "y = ExactScalar\n")
    assert _exact_scalar_lines(source) == [1, 3, 5]


_ERROR_KINDS = ["CoxlenError", "InputError", "DomainError", "ResourceCapError",
                "CertificateError"]


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _failure_paths(source):
    """Lines of `source` that subclass a package error kind, or that call or
    raise CertificateError instead of going through `errors.require`."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.ClassDef) and any(_name(b) in _ERROR_KINDS for b in n.bases):
            lines.add(n.lineno)
        elif isinstance(n, (ast.Call, ast.Raise)) and _name(
                n.func if isinstance(n, ast.Call) else n.exc) == "CertificateError":
            lines.add(n.lineno)
    return sorted(lines)


def test_failure_path_check_sees_every_spelling():
    source = ("from . import errors\n"
              "from .errors import CertificateError, DomainError, require\n"
              "class SearchError(DomainError):\n"
              "    pass\n"
              "def f(x):\n"
              "    require(x, 'bad %s', x)\n"
              "    try:\n"
              "        raise CertificateError('bad')\n"
              "    except CertificateError:\n"
              "        raise errors.CertificateError\n")
    assert _failure_paths(source) == [3, 8, 10]


_SOURCES = {path: path.read_text()
            for path in sorted(pathlib.Path(coxlen.__file__).parent.glob("*.py"))}


@pytest.mark.parametrize("path", sorted(_SOURCES), ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = _SOURCES[path]
    assert _unused_imports(source) == []
    assert _unreferenced_private_functions(source, list(_SOURCES.values())) == []
    assert _assert_lines(source) == []


@pytest.mark.parametrize("path", [p for p in sorted(_SOURCES)
                                  if p.name not in ("exactfield.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_no_computation_names_exact_scalar(path):
    # every computation works on Z[theta] coefficient tuples; ExactScalar is
    # public API, defined in exactfield and exported by __init__ alone
    assert _exact_scalar_lines(_SOURCES[path]) == []


def test_errors_define_one_kind_per_exit_code():
    # exit 1: InputError, DomainError; exit 2: ResourceCapError; exit 3:
    # CertificateError, raised by `require` alone
    tree = ast.parse(next(t for p, t in _SOURCES.items() if p.name == "errors.py"))
    assert [n.name for n in tree.body if isinstance(n, ast.ClassDef)] == _ERROR_KINDS
    assert [n.name for n in tree.body if isinstance(n, ast.FunctionDef)] == ["require"]


@pytest.mark.parametrize("path", [p for p in sorted(_SOURCES) if p.name != "errors.py"],
                         ids=lambda p: p.name)
def test_certificate_checks_go_through_require(path):
    assert _failure_paths(_SOURCES[path]) == []


# the multiplication kernels and the one maker of a product function
_KERNELS = {"_matrix_product", "_dense_product", "_sparse_product", "_rank_one_maker"}


def _kernel_lines(source):
    """Lines of `source` that name a kernel or `_matrix_product`: a name
    read or bound, an attribute, an import or a definition."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if _KERNELS & {getattr(n, "id", None), getattr(n, "attr", None),
                                 getattr(n, "name", None)})


def test_kernel_check_sees_every_spelling():
    source = ("from .tits import _matrix_product, row_factor\n"
              "from . import tits\n"
              "f = tits._dense_product\n"
              "'_sparse_product in a string is prose'\n"
              "def _rank_one_maker(w, d):\n"
              "    return row_factor\n")
    assert _kernel_lines(source) == [1, 3, 5]


@pytest.mark.parametrize("path", [p for p in sorted(_SOURCES) if p.name != "tits.py"],
                         ids=lambda p: p.name)
def test_products_are_made_in_tits_alone(path):
    # every other module multiplies through `row_factor` or `GroupElement`
    assert _kernel_lines(_SOURCES[path]) == []


def _scopes(source, match):
    """The enclosing function, dotted ("" at module level), of every node of
    `source` that `match` accepts."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + "." + node.name if scope else node.name
        if match(node):
            out.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def _readers(source, name):
    """The enclosing scope of every read of `name` in `source`: a bare name
    or an attribute, called or not."""
    return _scopes(source, lambda node: name in (getattr(node, "id", None),
                                                 getattr(node, "attr", None)))


def test_reader_check_sees_every_spelling():
    source = ("from .tits import _rank_one_maker\n"
              "make = _rank_one_maker\n"
              "def reflection(gram):\n"
              "    return _kept(gram, 'k', lambda gram: tits._rank_one_maker(3, 1))\n"
              "class K:\n"
              "    def f(self):\n"
              "        def g():\n"
              "            return _rank_one_maker\n"
              "def _rank_one_maker(w, d):\n"
              "    return '_rank_one_maker in a string is prose'\n")
    assert _readers(source, "_rank_one_maker") == ["", "reflection", "K.f.g"]


def test_rank_one_kernels_are_made_in_reflection_alone():
    # `tits.reflection` keeps each kernel on the Gram under its root, so no
    # reflection bypasses the kept kernels
    readers = [(path.name, scope) for path, source in _SOURCES.items()
               for scope in _readers(source, "_rank_one_maker")]
    assert readers == [("tits.py", "reflection")]


# the names that run or compile source text, and the builtins module that
# reaches them; `re.compile` compiles a pattern, not code
_CODE_RUNNERS = {"exec", "compile", "eval", "builtins", "__builtins__"}


def _runs_code(node):
    """Whether the node names a runner of source text: a bare name, an
    import, or the attribute `exec` or `eval` of anything."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("exec", "eval")
    if isinstance(node, ast.Name):
        return node.id in _CODE_RUNNERS
    return isinstance(node, ast.alias) and node.name in _CODE_RUNNERS


def test_code_runner_check_sees_every_spelling():
    source = ("import re, builtins\n"
              "from builtins import exec as run\n"
              "pattern = re.compile('x')\n"
              "'exec in a string is prose'\n"
              "def _mul_maker(r):\n"
              "    exec(compile('x = 1', '<k>', 'exec'), {})\n"
              "class K:\n"
              "    def f(self):\n"
              "        return builtins.eval\n"
              "g = eval\n")
    assert _scopes(source, _runs_code) == ["", "", "_mul_maker", "_mul_maker",
                                           "K.f", "K.f", ""]


def test_code_is_generated_in_the_kernel_makers_alone():
    # the straight-line kernels are the one place source text is compiled
    scopes = {(path.name, scope) for path, source in _SOURCES.items()
              for scope in _scopes(source, _runs_code)}
    assert scopes == {("exactfield.py", "_mul_maker"), ("tits.py", "_rank_one_maker"),
                      ("tits.py", "_report_maker")}
