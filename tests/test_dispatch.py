"""No module of raresplit picks a code path by comparing a ``kind`` string,
only the Gamma embedding reads its survival bracket, and only the curve
engine asks a law for its class or runs the Poisson DP.

A problem's process object, and each law and aggregate, carry their own
behaviour; a ``.kind`` is compared only where it is input: where
``ProblemSpec`` builds its process from it, and where the CLI checks that a
scenario suits the command.  Survival is one path: each process decides its
own survivors, so the bracket's tables stay inside the classes that build
and read them.  Exact answers are one path too: ``curve.py`` picks each
family's formula and holds the Poisson DP, no process carries an
``exact_cdf`` hook, and the oracle reads the curve.  What the engine does
not cover it refuses with a reason, never with a None, and only it knows
its lattice budget.  A sample's S(X) <= gamma is decided in one place as
well: every estimator asks ``process.survives``, and only ``model.py``
embeds whole rows and scores them with ``importance``.  Drawing and scoring
are one path too: only ``model.py`` names ``score_rows`` or
``poisson_sampler``, so IS, which is naive MC on its tilted problem, draws
through ``process.sampler()`` and decides through ``process.survives``, and
a refreshed splitting level draws its increments through
``process.sampler(dt)``: only the paper's plain loop draws numpy's
``gen.poisson`` counts.  A
problem is boxed in one place: only the CLI calls ``boxed``, once per
estimate of every method and once for the schedule ``levels`` prints, and
it always answers, so the estimators and schedule builders take the
problem as given and no caller compares a box with None.  Only the CLI asks for the clones' refresh,
for the problems that ``ProblemSpec.refreshes`` names, and no module but
``model.py`` tests an aggregate's class; ``split.py`` hands the refresh down to
``ProblemSpec``, the one class that defines it, so the schedule builders,
the pilot and the baselines run the paper's plain loop.  A splitting level
is one path as well: ``ProblemSpec.step`` makes its one refresh, survival
decision and compaction, no process defines a ``step``, a process's
``advance`` and ``sampler`` read every parameter they take, and only the
Gamma embedding keeps a table out of its pickles.
"""

import ast
import inspect
from pathlib import Path

import raresplit
from raresplit import model
from raresplit.cli import load_preset, preset_problem
from raresplit.dist import Marginal
from raresplit.model import _Aggregate
from raresplit.process import RngStream
from raresplit.sched import lower_bound_schedule
from raresplit.split import run_splitting

SRC = Path(raresplit.__file__).resolve().parent

# (module, enclosing function) of every comparison with a ``.kind`` allowed
ALLOWED = {
    ("model.py", "ProblemSpec.__post_init__"),  # the kind names the process to build
    ("cli.py", "_check_method"),  # --method is needs a Poisson scenario
}


def kind_comparisons(tree):
    """(enclosing function, line) of each comparison in ``tree`` that has
    a ``.kind`` attribute as an operand; the function is dotted with its
    classes, and "" at module level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Compare) and any(
                    isinstance(operand, ast.Attribute) and operand.attr == "kind"
                    for operand in (child.left, *child.comparators)):
                yield ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_kind_comparisons():
    source = ("class P:\n"
              "    def f(self, p):\n"
              "        return 'poisson' == p.kind or p.process.kind in ('a', 'b')\n"
              "x = y.kind != 'continuous'\n"
              "z = y.kind\n")
    assert list(kind_comparisons(ast.parse(source))) == [("P.f", 3), ("P.f", 3), ("", 4)]


def test_no_kind_dispatch_outside_input_checks():
    found, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for scope, line in kind_comparisons(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, scope) in ALLOWED:
                used.add((path.name, scope))
            else:
                found.append(f"{path.name}:{line} in {scope or '<module>'}")
    assert not found, found
    assert used == ALLOWED  # an allowance whose comparison is gone is removed too


# the classes, by module, that may read the survival bracket and its tables
BRACKET_OWNERS = {"model.py": {"_GammaEmbedding", "_SurvivalBracket"}}
BRACKET_ATTRS = {"bracket", "lo", "hi"}
BRACKET_CALLS = {"cells", "below"}


def bracket_reads(tree, owners=frozenset()):
    """(enclosing function, line) of each read of a ``.bracket``, ``.lo`` or
    ``.hi`` attribute and each call of a ``.cells`` or ``.below`` method in
    ``tree``, outside the classes named in ``owners``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif not owners & set(scope) and (
                    isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                    and child.attr in BRACKET_ATTRS
                    or isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in BRACKET_CALLS):
                yield ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_bracket_reads():
    source = ("class ProblemSpec:\n"
              "    def survives(self, g):\n"
              "        b = self.process.bracket\n"
              "        return b.lo[b.cells(g)] + b.hi\n"
              "class _SurvivalBracket:\n"
              "    def cells(self, g):\n"
              "        self.lo = self.hi = g\n"
              "        return self.lo.take(self.cells(g))\n"
              "x = y.cells(z).hi\n"
              "w = y.below(z, 0)\n")
    assert sorted(bracket_reads(ast.parse(source), {"_SurvivalBracket"})) == [
        ("", 9), ("", 9), ("", 10), ("ProblemSpec.survives", 3), ("ProblemSpec.survives", 4),
        ("ProblemSpec.survives", 4), ("ProblemSpec.survives", 4)]


def test_only_the_gamma_embedding_reads_its_bracket():
    found = [f"{path.name}:{line} in {scope or '<module>'}"
             for path in sorted(SRC.glob("*.py"))
             for scope, line in bracket_reads(ast.parse(path.read_text(encoding="utf-8")),
                                              BRACKET_OWNERS.get(path.name, set()))]
    assert not found, found


# modules that may test a value against a law or aggregate class: the two
# that define them, and the curve engine, which picks each family's formula
CLASS_OWNERS = {"dist.py", "model.py", "curve.py"}


def class_names(cls):
    """The names of ``cls`` and of every class derived from it."""
    return {cls.__name__}.union(*(class_names(sub) for sub in cls.__subclasses__()))


LAWS_AND_AGGREGATES = class_names(Marginal) | class_names(_Aggregate)


def named(node):
    """The name of a plain name or of a module or object attribute, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def class_tests(tree, names):
    """(enclosing function, line) of each ``isinstance`` call in ``tree``
    whose class argument, or one entry of its tuple, is named in ``names``
    (plainly or as a module attribute)."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and named(child.func) == "isinstance"
                  and len(child.args) == 2):
                classes = child.args[1]
                entries = classes.elts if isinstance(classes, ast.Tuple) else [classes]
                if any(named(entry) in names for entry in entries):
                    yield ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_class_tests():
    source = ("def oracle(p):\n"
              "    if isinstance(p.importance, Sum):\n"
              "        return all(isinstance(m, dist.Exponential) for m in p.marginals)\n"
              "    return isinstance(p, (int, Ratio)) or isinstance(p, dict)\n"
              "ok = isinstance(x, Poisson)\n")
    assert list(class_tests(ast.parse(source), {"Sum", "Exponential", "Ratio", "Poisson"})) == [
        ("oracle", 2), ("oracle", 3), ("oracle", 4), ("", 5)]


def test_only_the_curve_engine_tests_law_and_aggregate_classes():
    assert {"LogNormal", "Exponential", "Poisson", "Sum", "Ratio", "WeightedSum"} \
        <= LAWS_AND_AGGREGATES
    found = [f"{path.name}:{line} in {scope or '<module>'}"
             for path in sorted(SRC.glob("*.py")) if path.name not in CLASS_OWNERS
             for scope, line in class_tests(ast.parse(path.read_text(encoding="utf-8")),
                                            LAWS_AND_AGGREGATES)]
    assert not found, found


# the one module that holds and runs the Poisson DP, each family's exact curve
CURVE_OWNER = "curve.py"
POISSON_DP = "_weighted_poisson_cdf"


def exact_curve_sites(tree):
    """(site, line) of each definition ("def") and call ("call") of the
    Poisson DP in ``tree``, and of each ``exact_cdf`` a class body defines as
    a method or an attribute ("exact_cdf")."""
    def defines_exact_cdf(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name == "exact_cdf"
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        return any(named(target) == "exact_cdf" for target in targets)

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(node, ast.ClassDef) and defines_exact_cdf(child):
                yield "exact_cdf", child.lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and child.name == POISSON_DP:
                yield "def", child.lineno
            elif isinstance(child, ast.Call) and named(child.func) == POISSON_DP:
                yield "call", child.lineno
            yield from visit(child)

    yield from visit(tree)


def test_guard_finds_exact_curve_sites():
    source = ("class _PoissonJumps:\n"
              "    def exact_cdf(self, spec, t):\n"
              "        return dist._weighted_poisson_cdf(self._rates * t)\n"
              "class _GammaEmbedding:\n"
              "    exact_cdf = None\n"
              "    def sampler(self):\n"
              "        exact_cdf = 1\n"
              "def _weighted_poisson_cdf(rates):\n"
              "    return 1.0\n"
              "x = [_weighted_poisson_cdf(r) for r in rs]\n"
              "f = _weighted_poisson_cdf\n")
    assert list(exact_curve_sites(ast.parse(source))) == [
        ("exact_cdf", 2), ("call", 3), ("exact_cdf", 5), ("def", 8), ("call", 10)]


def test_only_the_curve_engine_holds_the_poisson_dp():
    found, owned = [], []
    for path in sorted(SRC.glob("*.py")):
        for site, line in exact_curve_sites(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == CURVE_OWNER and site != "exact_cdf":
                owned.append(site)
            else:
                found.append(f"{path.name}:{line} ({site})")
    assert not found, found
    assert sorted(owned) == ["call", "def"]  # defined once and run from one place


def test_only_the_model_tests_aggregate_classes():
    # an aggregate states its own behaviour: ``summands`` tells the curve
    # engine whether S is a sum, ``room_columns`` which columns have a room,
    # and the one rule of which problems refresh lives in ``model.py``
    found = [f"{path.name}:{line} in {scope or '<module>'}"
             for path in sorted(SRC.glob("*.py")) if path.name != "model.py"
             for scope, line in class_tests(ast.parse(path.read_text(encoding="utf-8")),
                                            class_names(_Aggregate))]
    assert not found, found


LATTICE_BUDGET = "MAX_LATTICE"


def budget_names(tree):
    """Lines of ``tree`` that name the lattice budget: as a name, an
    attribute or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == LATTICE_BUDGET or \
                isinstance(node, (ast.Name, ast.Attribute)) and named(node) == LATTICE_BUDGET:
            yield getattr(node, "lineno", None)


def none_returns(tree):
    """(function, line) of each ``return``, ``return None`` or ``return a if
    b else None`` in ``tree``, and of each function whose last statement is
    neither a return nor a raise, so that it may fall off its end (at the
    line of its def)."""
    def is_none(value):
        return value is None or isinstance(value, ast.Constant) and value.value is None

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
                if not isinstance(child, ast.ClassDef) \
                        and not isinstance(child.body[-1], (ast.Return, ast.Raise)):
                    yield ".".join(inner), child.lineno
            elif isinstance(child, ast.Return) and (
                    is_none(child.value) or isinstance(child.value, ast.IfExp)
                    and (is_none(child.value.body) or is_none(child.value.orelse))):
                yield ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_budget_names_and_none_returns():
    source = ("from .curve import MAX_LATTICE, survival_bracket\n"
              "def f(problem):\n"
              "    if curve.MAX_LATTICE > MAX_LATTICE:\n"
              "        return None\n"
              "    def g():\n"
              "        return\n"
              "    def h():\n"
              "        pass\n"
              "    return g() if problem else None\n"
              "class C:\n"
              "    def k(self):\n"
              "        if self:\n"
              "            return 1\n")
    tree = ast.parse(source)
    assert sorted(budget_names(tree), key=str) == [1, 3, 3]
    assert list(none_returns(tree)) == [
        ("f", 4), ("f.g", 6), ("f.h", 7), ("f", 9), ("C.k", 11)]


def test_only_the_curve_engine_knows_its_budget_and_refuses_with_a_reason():
    named_elsewhere = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                       if path.name != CURVE_OWNER
                       for line in budget_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert not named_elsewhere, named_elsewhere
    curve = ast.parse((SRC / CURVE_OWNER).read_text(encoding="utf-8"))
    assert list(budget_names(curve))  # the guard still sees the budget where it lives
    assert not list(none_returns(curve))


# the reference route to S(X), embedding every level and scoring every row:
# model.py defines it, the package exports it, the tests and the replay check
# the survival decision against it, and no estimator takes it, since
# ``process.survives`` decides
REFERENCE_OWNER = "model.py"
REFERENCE_EXPORTER = "__init__.py"
REFERENCE_ROUTE = {"embed", "importance"}


def reference_uses(tree):
    """(use, name, line) of each import ("import") of ``embed`` or
    ``importance`` and of each call ("call") of either, plainly or as a module
    attribute, in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in REFERENCE_ROUTE:
            yield "import", node.name, getattr(node, "lineno", None)
        elif isinstance(node, ast.Call) and named(node.func) in REFERENCE_ROUTE:
            yield "call", named(node.func), node.lineno


def test_guard_finds_reference_uses():
    source = ("from .model import ProblemSpec, embed, importance_from_json\n"
              "def naive(problem, g):\n"
              "    x = model.embed(g, problem.marginals, problem.directions)\n"
              "    return importance(problem.importance, x) <= problem.gamma\n"
              "score = problem.importance.score_rows\n")
    assert sorted(reference_uses(ast.parse(source)), key=lambda use: use[2]) == [
        ("import", "embed", 1), ("call", "embed", 3), ("call", "importance", 4)]


def test_only_the_model_embeds_and_scores_whole_rows():
    found, exported = [], set()
    for path in sorted(SRC.glob("*.py")):
        for use, name, line in reference_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == REFERENCE_EXPORTER and use == "import":
                exported.add(name)
            elif path.name != REFERENCE_OWNER:
                found.append(f"{path.name}:{line} ({use} of {name})")
    assert not found, found
    assert exported == REFERENCE_ROUTE  # both stay public, as the reference


# the Poisson draws and the row scores, which only the model's processes and
# aggregates take: ``process.py`` defines ``poisson_sampler`` and calls it nowhere
DRAW_AND_SCORE = {"score_rows", "poisson_sampler"}
DRAW_AND_SCORE_OWNER = "model.py"


def draw_and_score_uses(tree):
    """(name, line) of each import, name or attribute in ``tree`` that reads
    ``score_rows`` or ``poisson_sampler``; a ``def`` of either is no use."""
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name in DRAW_AND_SCORE:
            yield node.name, getattr(node, "lineno", None)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and named(node) in DRAW_AND_SCORE:
            yield named(node), node.lineno


def test_guard_finds_draw_and_score_uses():
    source = ("from .process import RngStream, poisson_sampler\n"
              "def poisson_is(lambdas, weights, gamma, m, rng):\n"
              "    score = WeightedSum(weights).score_rows\n"
              "    draw = process.poisson_sampler(lambdas)\n"
              "    return score(draw(rng.gen, m)) <= gamma\n"
              "def poisson_sampler(rates):\n"
              "    score_rows = rates\n")
    assert sorted(draw_and_score_uses(ast.parse(source)), key=lambda use: use[1]) == [
        ("poisson_sampler", 1), ("score_rows", 3), ("poisson_sampler", 4)]


def test_only_the_model_draws_poisson_counts_and_scores_rows():
    found, owned = [], set()
    for path in sorted(SRC.glob("*.py")):
        for name, line in draw_and_score_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == DRAW_AND_SCORE_OWNER:
                owned.add(name)
            else:
                found.append(f"{path.name}:{line} ({name})")
    assert not found, found
    assert owned == DRAW_AND_SCORE  # the guard still sees both where they live


# where a problem may be boxed: the CLI boxes each run once, whatever its
# method, and ``levels`` prints the schedule of that box
BOX_CALLERS = {("cli.py", "run_estimation"), ("cli.py", "cmd_levels")}


def is_boxed_call(node):
    return isinstance(node, ast.Call) and named(node.func) == "boxed"


def boxed_uses(tree):
    """(use, enclosing function, line) of each call of a ``.boxed`` method
    ("call") in ``tree``, and of each comparison with None ("none") of such
    a call or of a name its function assigns from one."""
    def bound_names(function):
        return {target.id for node in ast.walk(function)
                if isinstance(node, ast.Assign) and is_boxed_call(node.value)
                for target in node.targets if isinstance(target, ast.Name)}

    def from_boxed(operand, bound):
        operand = operand.value if isinstance(operand, ast.NamedExpr) else operand
        return is_boxed_call(operand) or isinstance(operand, ast.Name) and operand.id in bound

    def visit(node, scope, bound):
        for child in ast.iter_child_nodes(node):
            inner, inner_bound = scope, bound
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner, inner_bound = scope + (child.name,), bound_names(child)
            elif is_boxed_call(child):
                yield "call", ".".join(scope), child.lineno
            elif isinstance(child, ast.Compare):
                operands = (child.left, *child.comparators)
                if any(isinstance(o, ast.Constant) and o.value is None for o in operands) \
                        and any(from_boxed(o, bound) for o in operands):
                    yield "none", ".".join(scope), child.lineno
            yield from visit(child, inner, inner_bound)

    yield from visit(tree, (), set())


def test_guard_finds_boxed_uses():
    source = ("def _on_box(problem):\n"
              "    boxed = problem.boxed()\n"
              "    return (problem, 1.0) if boxed is None else boxed\n"
              "def replicate(problem):\n"
              "    if (box := problem.boxed()) is not None:\n"
              "        problem = box[0]\n"
              "    return None is problem.boxed() or problem is None\n")
    assert sorted(boxed_uses(ast.parse(source))) == [
        ("call", "_on_box", 2), ("call", "replicate", 5), ("call", "replicate", 7),
        ("none", "_on_box", 3), ("none", "replicate", 5), ("none", "replicate", 7)]


def test_only_the_cli_boxes_and_never_asks_for_none():
    found, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        for use, scope, line in boxed_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if use == "call" and (path.name, scope) in BOX_CALLERS:
                used.add((path.name, scope))
            else:
                found.append(f"{path.name}:{line} ({use}) in {scope or '<module>'}")
    assert not found, found
    assert used == BOX_CALLERS  # an allowance whose call is gone is removed too


# where the refresh may be asked for or run: the CLI asks for it, the
# splitting loop hands it down, and ``ProblemSpec.step`` runs the one refresh
REFRESH_NAMES = {"refresh", "refresh_at"}
REFRESH_SITES = {
    ("cli.py", "run_estimation"),  # the CLI's one refresh policy, ProblemSpec.refreshes
    ("split.py", "replicate"),
    ("split.py", "_replication"),
    ("split.py", "run_splitting"),
    ("model.py", "ProblemSpec.step"),
}
REFRESH_OWNERS = {"ProblemSpec"}


def refresh_uses(tree):
    """(use, enclosing function or class, line) of each call in ``tree``
    that passes a ``refresh`` or ``refresh_at`` keyword ("pass") or calls a
    ``.refresh`` method ("call"), and of each class body that defines a
    ``refresh`` method or attribute ("define")."""
    def defines_refresh(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name == "refresh"
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        return any(named(target) == "refresh" for target in targets)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(node, ast.ClassDef) and defines_refresh(child):
                yield "define", ".".join(scope), child.lineno
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                if any(kw.arg in REFRESH_NAMES for kw in child.keywords):
                    yield "pass", ".".join(scope), child.lineno
                if isinstance(child.func, ast.Attribute) and child.func.attr == "refresh":
                    yield "call", ".".join(scope), child.lineno
            yield from visit(child, inner)

    yield from visit(tree, ())


def test_guard_finds_refresh_uses():
    source = ("def inverse_ccdf_schedule(problem, rng):\n"
              "    pilot = run_splitting(problem, schedule, 100, rng, refresh=True)\n"
              "    problem.process.refresh(rows, 0.5, rng, 1.0)\n"
              "    return problem.step(rows, idx, 0.1, rng, refresh_at=0.5)\n"
              "class _GammaEmbedding:\n"
              "    refresh = None\n"
              "    def refresh(self, rows):\n"
              "        refresh = 1\n")
    assert sorted(refresh_uses(ast.parse(source))) == [
        ("call", "inverse_ccdf_schedule", 3), ("define", "_GammaEmbedding", 6),
        ("define", "_GammaEmbedding", 7), ("pass", "inverse_ccdf_schedule", 2),
        ("pass", "inverse_ccdf_schedule", 4)]


def test_only_the_cli_asks_for_the_refresh_and_one_class_has_it():
    found, used, owners = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        for use, scope, line in refresh_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if use == "define" and path.name == "model.py" and scope in REFRESH_OWNERS:
                owners.add(scope)
            elif use != "define" and (path.name, scope) in REFRESH_SITES:
                used.add((path.name, scope))
            else:
                found.append(f"{path.name}:{line} ({use}) in {scope or '<module>'}")
    assert not found, found
    assert used == REFRESH_SITES  # an allowance whose site is gone is removed too
    assert owners == REFRESH_OWNERS


# the one class whose pickled copy drops what it built (the Gamma embedding's
# bracket), and the one splitting level: ``ProblemSpec.step`` decides and
# compacts, while a process only advances and decides
PICKLE_HOOK_OWNERS = {"_GammaEmbedding"}
LEVEL_OWNER = "ProblemSpec"


def class_members(tree):
    """(class, name, line) of each method and attribute a class body in
    ``tree`` defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, child.name, child.lineno
                targets = child.targets if isinstance(child, ast.Assign) else (
                    [child.target] if isinstance(child, ast.AnnAssign) else [])
                for target in targets:
                    if named(target):
                        yield node.name, named(target), child.lineno


def test_guard_finds_class_members():
    source = ("class _PoissonJumps:\n"
              "    def __getstate__(self):\n"
              "        step = 1\n"
              "    step = None\n"
              "class ProblemSpec:\n"
              "    def step(self):\n"
              "        pass\n"
              "def step():\n"
              "    pass\n")
    assert sorted(class_members(ast.parse(source))) == [
        ("ProblemSpec", "step", 6), ("_PoissonJumps", "__getstate__", 2),
        ("_PoissonJumps", "step", 4)]


def test_one_pickle_hook_and_one_splitting_level():
    members = list(class_members(ast.parse((SRC / "model.py").read_text(encoding="utf-8"))))
    assert {cls for cls, name, _ in members if name == "__getstate__"} == PICKLE_HOOK_OWNERS
    processes = {cls.__name__ for cls in model._PROCESSES.values()}
    assert {"_GammaEmbedding", "_PoissonJumps"} <= processes
    steps = {cls for cls, name, _ in members if name == "step"}
    assert steps == {LEVEL_OWNER} and not steps & processes


# the hooks through which a splitting level drives a process, and their parameters
PROCESS_HOOKS = {"advance": ["rows", "dt", "rng"], "sampler": ["t"]}


def unread_parameters(tree, classes):
    """(class, method, parameter) of each parameter, ``self`` aside, that an
    ``advance`` or ``sampler`` method of a class named in ``classes`` does
    not read in its body."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and method.name in PROCESS_HOOKS:
                    args = method.args
                    params = [a.arg for a in (*args.posonlyargs, *args.args, args.vararg,
                                              *args.kwonlyargs, args.kwarg) if a][1:]
                    read = {n.id for n in ast.walk(method)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    for param in params:
                        if param not in read:
                            yield node.name, method.name, param


def test_guard_finds_unread_parameters():
    source = ("class _GammaEmbedding:\n"
              "    def advance(self, states, idx, dt, rng, gamma, refresh_at=0.0):\n"
              "        return advance_gamma_batch(states[idx], dt, rng)\n"
              "    def sampler(self, t=1.0, *rest, **options):\n"
              "        return lambda gen, c, cols=None: draw(gen, c, t, rest)\n"
              "    def survives(self, states, gamma):\n"
              "        return states\n"
              "class Other:\n"
              "    def advance(self, rows, dt, rng):\n"
              "        pass\n")
    assert list(unread_parameters(ast.parse(source), {"_GammaEmbedding"})) == [
        ("_GammaEmbedding", "advance", "gamma"), ("_GammaEmbedding", "advance", "refresh_at"),
        ("_GammaEmbedding", "sampler", "options")]


def test_every_process_hook_takes_and_reads_the_same_parameters():
    processes = {cls.__name__: cls for cls in model._PROCESSES.values()}
    for cls in processes.values():
        for hook, params in PROCESS_HOOKS.items():
            assert list(inspect.signature(getattr(cls, hook)).parameters) == ["self", *params]
    tree = ast.parse((SRC / "model.py").read_text(encoding="utf-8"))
    assert not list(unread_parameters(tree, set(processes)))


class _PoissonDrawn(Exception):
    """Raised by ``_NoPoisson`` where a run calls ``gen.poisson``."""


class _NoPoisson:
    """A generator whose ``poisson`` raises; every other draw is the wrapped one's."""

    def __init__(self, gen):
        self.gen = gen

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def poisson(self, *args, **kwargs):
        raise _PoissonDrawn


def draws_poisson(run, rng):
    """Whether ``run(rng)`` calls ``gen.poisson`` on ``rng``: its generator
    refuses the call, so a run that returns drew no numpy Poisson count."""
    rng.gen = _NoPoisson(rng.gen)
    try:
        run(rng)
    except _PoissonDrawn:
        return True
    return False


def test_guard_finds_poisson_draws():
    assert draws_poisson(lambda rng: (rng.gen.random(3), rng.gen.poisson(1.0, 3)), RngStream(1))
    assert draws_poisson(lambda rng: rng.gen.poisson(lam=1.0), RngStream(1))
    assert not draws_poisson(lambda rng: rng.gen.random(3) + rng.gen.integers(0, 2, 3),
                             RngStream(1))


def test_only_the_plain_loop_draws_numpy_poisson_counts():
    # a refreshed run draws every count from the sampler's tables; the
    # plain loop keeps the gen.poisson stream that the benchmark replays
    problem = preset_problem(load_preset("I"), 50.0)
    schedule = lower_bound_schedule(problem)
    counts = []

    def refreshed(rng):
        counts.append(run_splitting(problem, schedule, 300, rng, refresh=True).survivor_counts)

    assert not draws_poisson(refreshed, RngStream(3))
    assert len(counts[0]) == len(schedule) > 1
    assert draws_poisson(lambda rng: run_splitting(problem, schedule, 300, rng), RngStream(3))
