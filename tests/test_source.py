"""Static checks over the package source."""

import ast
import pathlib

import henonlocus

PACKAGE = pathlib.Path(henonlocus.__file__).resolve().parent


def _find(predicate):
    """`file:line` of every AST node in the package that satisfies predicate."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if predicate(node)
        ]
    return found


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so every check must raise a typed error.
    found = _find(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node):
    """`os.environ`, `os.getenv`, and the same names used bare or imported."""
    if isinstance(node, ast.Attribute):
        return node.attr in _ENVIRONMENT
    if isinstance(node, ast.Name):
        return node.id in _ENVIRONMENT
    return isinstance(node, ast.alias) and node.name in _ENVIRONMENT


def test_package_reads_no_environment_variables():
    # Behaviour comes from arguments (CLI flags, config keys) only.
    found = _find(_reads_environment)
    assert not found, f"environment reads in the package: {found}"


def _unused_imports(tree):
    """Names an import statement binds that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in bound.items() if name not in read}


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module imports to use.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{line} {name}"
            for name, line in sorted(_unused_imports(tree).items())
        ]
    assert not found, f"unused imports in the package: {found}"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_every_private_definition_is_used():
    # A private function or class nothing in the package names is dead code.
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defined[node.name] = f"{path.relative_to(PACKAGE)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    found = sorted(where for name, where in defined.items() if name not in referenced)
    assert not found, f"private definitions nothing references: {found}"


def _enclosing_functions(predicate):
    """(module, enclosing function or "<module>") of every AST node in the
    package that satisfies predicate."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        enclosing = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    enclosing.setdefault(node, fn.name)
        found |= {
            (path.name, enclosing.get(node, "<module>"))
            for node in ast.walk(tree)
            if predicate(node)
        }
    return found


def _functions_naming(name):
    """(module, enclosing function or "<module>") of every read or import of name."""
    return _enclosing_functions(
        lambda node: (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def test_one_theta_continuation():
    # The covering and monodromy certificates share one theta-continuation,
    # and it is the only caller of the 2-D locus Newton.
    assert _functions_naming("_locus_newton_2d") == {("locus.py", "_theta_continuation")}
    assert _functions_naming("_theta_continuation") == {
        ("locus.py", "verify_biholomorphism"),
        ("holonomy.py", "<module>"),
        ("holonomy.py", "monodromy_orbit"),
    }


def test_one_critical_point_finder_and_one_cycle_search():
    # Polynomial.critical_points is the only root finder: numpy's companion
    # roots and the trap's own Durand-Kerner seeds are gone, and the trap and
    # the manifold admission check share one attracting-cycle search.
    assert _find(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "roots")
        or (isinstance(node, ast.alias) and node.name.split(".")[-1] == "roots")
    ) == []
    assert _functions_naming("_critical_seeds") == set()
    assert _find(lambda node: getattr(node, "name", None) == "_critical_seeds") == []
    assert _functions_naming("_attracting_cycle") == {
        ("dynamics.py", "attracting_trap"),
        ("manifolds.py", "<module>"),
        ("manifolds.py", "_require_tame_polynomial"),
    }


def test_one_chart_builder():
    # The charts at infinity are built once: the unit factors h+ and h- are
    # formed only by the builder that the locus and the charts share.  (The
    # package's lazy re-export table holds the name as a string.)
    assert _functions_naming("phi_series") == {("rigidity.py", "_charts")}
    assert _functions_naming("_charts") == {
        ("rigidity.py", "locus_series"),
        ("rigidity.py", "chart_series"),
    }


def _function_names(module, predicate):
    """Names of the functions defined in module that satisfy predicate."""
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and predicate(node)
    ]


def test_one_composition_routine():
    # The three chart pieces A, Bx and Bv are composed by one routine from
    # one set of powers of vtil, and only the chart builder calls it.
    composers = _function_names("rigidity.py", lambda fn: "compose" in fn.name)
    assert composers == ["_compose_shared"]
    assert _functions_naming("_compose_shared") == {("rigidity.py", "_charts")}


def test_one_substitution_routine():
    # A polynomial is substituted into by one routine, whatever its values
    # (renames, rationals, single terms and sums alike): there is no
    # _substitute_* fork beside it.  substitute_coeff_var is the series
    # layer's Horner over a coefficient variable.
    assert _function_names("series.py", lambda fn: "substitut" in fn.name) == [
        "substitute",
        "substitute_coeff_var",
    ]


def _divides_by_the_derivative_at_the_iterate(node):
    """`<series>.substitute_coeff_var(...).inverse()`: a Newton update."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "inverse"
        and isinstance(node.func.value, ast.Call)
        and isinstance(node.func.value.func, ast.Attribute)
        and node.func.value.func.attr == "substitute_coeff_var"
    )


def test_one_formal_newton_loop():
    # The locus branch comes from one formal Newton, _branch, which has one
    # loop, and only the locus and the chart builders call it.
    assert _enclosing_functions(_divides_by_the_derivative_at_the_iterate) == {
        ("rigidity.py", "_branch")
    }
    loops = _function_names(
        "rigidity.py",
        lambda fn: fn.name == "_branch"
        and sum(isinstance(node, (ast.For, ast.While)) for node in ast.walk(fn)) == 1,
    )
    assert loops == ["_branch"]
    assert _functions_naming("_branch") == {
        ("rigidity.py", "locus_series"),
        ("rigidity.py", "chart_series"),
    }


def _prepares_a_kernel_call(node):
    """A call of truncation_K, bare or as an attribute, or of .kernel_trap."""
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "truncation_K"
        or getattr(node.func, "attr", None) in ("truncation_K", "kernel_trap")
    )


def test_one_kernel_call_preparation():
    # The scalar path and the batch blocks take their truncation K and the
    # trap's kernel form from one helper, so the two cannot drift apart.
    assert _enclosing_functions(_prepares_a_kernel_call) == {("escape.py", "_call_args")}


def test_no_thread_pool_renders_pixels():
    # The escape kernel is pure Python, so threads share one interpreter
    # lock: grid rows go to forked processes instead.
    found = _find(
        lambda node: (isinstance(node, ast.Name) and node.id == "ThreadPoolExecutor")
        or (isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor")
        or (isinstance(node, ast.alias) and node.name == "ThreadPoolExecutor")
    )
    assert not found, f"ThreadPoolExecutor in the package: {found}"


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_import_ledger():
    # numpy is imported at module level only by gridfield and the batch
    # kernel that only gridfield imports, and otherwise only inside the
    # manifold graphs' FFT, so that importing any other module -- the
    # package itself, the CLI, rigidity -- does not load it.
    assert _enclosing_functions(_imports_numpy) == {
        ("_batch.py", "<module>"),
        ("gridfield.py", "<module>"),
        ("manifolds.py", "_taylor_from_circle"),
    }
    assert {module for module, _ in _functions_naming("_batch")} == {"gridfield.py"}


# numpy routines that are not bitwise CPython's complex arithmetic or its
# cmath/math functions on every host, and numpy's complex dtypes
_NOT_CPYTHONS = {"log", "log1p", "exp", "arctan2"}
_COMPLEX_DTYPES = {"complex64", "complex128", "complex_", "csingle", "cdouble", "clongdouble"}


def _is_complex_dtype(node):
    """`complex`, np.complex128 and kin, or a complex dtype string."""
    if isinstance(node, ast.Name):
        return node.id in {"complex"} | _COMPLEX_DTYPES
    if isinstance(node, ast.Attribute):
        return node.attr in _COMPLEX_DTYPES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "complex" in node.value or node.value.lstrip("<>=") in {"c8", "c16", "F", "D", "G"}
    return False


def _leaves_cpython_arithmetic(node):
    """np.log/log1p/exp/arctan2 (also imported bare), or a complex dtype
    passed as `dtype=` or to `astype`."""
    if isinstance(node, ast.Attribute):
        return node.attr in _NOT_CPYTHONS | _COMPLEX_DTYPES and getattr(
            node.value, "id", None
        ) in ("np", "numpy")
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
        return any(alias.name in _NOT_CPYTHONS | _COMPLEX_DTYPES for alias in node.names)
    if isinstance(node, ast.keyword) and node.arg == "dtype":
        return _is_complex_dtype(node.value)
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "astype":
        return any(map(_is_complex_dtype, node.args))
    return False


def test_batch_kernel_stays_split_real():
    # numpy's complex * and /, log, log1p, exp and arctan2 differ from
    # CPython's in the last bit on some inputs, so the batch kernel holds
    # real and imaginary parts apart and calls cmath for its logs and exps.
    for bad in (
        "np.log(x)",
        "numpy.arctan2(y, x)",
        "from numpy import exp",
        "np.zeros(3, dtype=complex)",
        "np.empty(3, dtype='complex128')",
        "np.ones(2, dtype=np.complex64)",
        "x.astype(complex)",
        "x.astype(np.complex128)",
    ):
        assert any(map(_leaves_cpython_arithmetic, ast.walk(ast.parse(bad)))), bad
    tree = ast.parse((PACKAGE / "_batch.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree) if _leaves_cpython_arithmetic(node)]
    assert found == [], f"_batch.py leaves CPython's arithmetic at lines {found}"


def _is_real_imag_pair(node):
    return (
        isinstance(node, ast.List)
        and len(node.elts) == 2
        and [getattr(elt, "attr", None) for elt in node.elts] == ["real", "imag"]
    )


def test_one_json_writer():
    # Every JSON output goes through dynamics.to_json (strict, complex values
    # as [re, im]).
    assert _enclosing_functions(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "dumps")
        or (isinstance(node, ast.alias) and node.name == "dumps")
    ) == {("dynamics.py", "to_json")}
    assert _find(lambda node: getattr(node, "name", None) in ("c2", "_c2")) == []
    assert _enclosing_functions(_is_real_imag_pair) == {("dynamics.py", "_pair")}


def test_exact_products_stay_in_packed_integers():
    # One packed form: no per-product repacking of operands, and no Fraction
    # inside the product kernel.
    series = PACKAGE / "series.py"
    tree = ast.parse(series.read_text(encoding="utf-8"), filename=str(series))
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "_packed_rows" not in defined
    (kernel,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_cauchy_product"
    ]
    names = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(kernel) if isinstance(node, ast.Attribute)}
    assert "Fraction" not in names


def test_one_scalar_kernel_path():
    # Every scalar kernel call carries the Jacobian: the public entries take
    # no flag to skip it, and evaluate p only through horner_with_deriv.
    # Both sides run one loop: exactly one function calls horner_with_deriv,
    # and it holds the only entry `while` loop.  The value-only loops are the
    # batch's.
    path = PACKAGE / "_kernel.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    parameters = {
        name: [arg.arg for arg in functions[name].args.args]
        for name in ("phi_plus_eval", "phi_minus_eval")
    }
    assert parameters == {
        "phi_plus_eval": ["coeffs", "a", "x", "y", "K", "alpha", "cap", "trap"],
        "phi_minus_eval": ["coeffs", "a", "x", "y", "K", "alpha", "cap"],
    }

    def in_kernel(name):
        return {fn for module, fn in _functions_naming(name) if module == "_kernel.py"}

    assert in_kernel("horner") == set()
    entry_loops = {
        name
        for name, node in functions.items()
        if any(isinstance(child, ast.While) for child in ast.walk(node))
    }
    assert len(in_kernel("horner_with_deriv")) == 1
    assert in_kernel("horner_with_deriv") == entry_loops


def _is_dataclass(cls):
    for decorator in cls.decorator_list:
        fn = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(fn, "id", None) == "dataclass" or getattr(fn, "attr", None) == "dataclass":
            return True
    return False


def _knobs(node, module, prefix=""):
    """`module:function:name` of every defaulted parameter and every
    defaulted dataclass field under node; methods are `Class.method`."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = prefix + child.name
            found += [f"{module}:{name}:{arg.arg}" for arg in defaulted]
            found += _knobs(child, module, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                found += [
                    f"{module}:{name}:{field.target.id}"
                    for field in child.body
                    if isinstance(field, ast.AnnAssign) and field.value is not None
                ]
            found += _knobs(child, module, name + ".")
        else:
            found += _knobs(child, module, prefix)
    return found


# Every setting a caller can leave out.  A new one is a knob: it belongs here
# only with a caller outside the tests that sets it.
KNOBS = {
    "cli:config_from_text:subcommand",
    "cli:run:argv",
    "errors:CertificateViolation.__init__:depth",
    "errors:CertificateViolation.__init__:r",
    "errors:CertificateViolation.__init__:smax",
    "errors:CoordinateOverflow.__init__:point",
    "errors:CoordinateOverflow.__init__:step",
    "errors:LeftTube.__init__:sample",
    "escape:phi_minus:tol",
    "escape:phi_plus:tol",
    "escape:phi_with_gradient:alpha",
    "gridfield:green_grid:slice_axis",
    "gridfield:green_grid:slice_value",
    "gridfield:green_grid:workers",
    "locus:locate_on_locus:tol",
    "locus:locate_on_locus:y_seed",
    "locus:trace_primary_component:step",
    "locus:trace_primary_component:x_range",
    "locus:verify_biholomorphism:radii",
    "manifolds:local_stable_graph:iterations",
    "manifolds:local_stable_graph:mesh",
    "manifolds:local_unstable_graph:iterations",
    "manifolds:local_unstable_graph:mesh",
    "rigidity:defect_coefficients_text:order",
    "series:_cauchy_product:budget",
    "series:_cauchy_product:weight_at",
}


def test_knob_ledger():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _knobs(tree, path.stem)
    assert len(found) == len(set(found))
    assert sorted(set(found) - KNOBS) == [], "new defaulted parameters or fields"
    assert sorted(KNOBS - set(found)) == [], "ledger entries with no parameter left"


_MEMOS = {"lru_cache", "cache", "cached_property", "_highest_order_kept"}


def _memos(tree, owner):
    """`owner.name` of every function under tree decorated with a memo;
    a method's owner is its class, a module function's its module."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _memos(node, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                fn = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(fn, "id", getattr(fn, "attr", None)) in _MEMOS:
                    found.append(f"{owner}.{node.name}")
            found += _memos(node, owner)
    return found


# Every result the package keeps between calls.  A new one belongs here only
# with traffic that hits it: rigidity_defect serves orders 3, 7 and 8 from
# order 13, while the chart and sigma series below it are reached only on
# its misses and keep nothing.
MEMOS = {
    "escape.truncation_K",
    "escape.tail_bound",
    "Polynomial._critical_points",
    "HenonMap.trap",
    "CycleTrap.reach",
    "rigidity.rigidity_defect",
}


def test_memo_ledger():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += _memos(tree, path.stem)
    assert len(found) == len(set(found))
    assert sorted(set(found) - MEMOS) == [], "new memos"
    assert sorted(MEMOS - set(found)) == [], "ledger entries with no memo left"


def _henon_names(tree):
    """Names that hold a HenonMap: `henon`, and any annotated HenonMap."""
    names = {"henon"}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            if ast.unparse(node.annotation) == "HenonMap":
                names.add(node.arg)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if ast.unparse(node.annotation) == "HenonMap":
                names.add(node.target.id)
    return names


def _attribute_writes(tree):
    """(line, base name) of every attribute store, delete, setattr and delattr."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(node.value, ast.Name):
                yield node.lineno, node.value.id
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name):
            fn = node.func
            if getattr(fn, "id", None) in ("setattr", "delattr") or getattr(
                fn, "attr", None
            ) in ("__setattr__", "__delattr__"):
                yield node.lineno, node.args[0].id


def test_only_dynamics_sets_attributes_on_a_map():
    # The map owns its per-map facts (domain, trap): no other module caches
    # anything on it.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "dynamics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        henon = _henon_names(tree)
        found += [
            f"{path.relative_to(PACKAGE)}:{line} {name}"
            for line, name in _attribute_writes(tree)
            if name in henon
        ]
    assert not found, f"attributes set on a HenonMap outside dynamics.py: {found}"
