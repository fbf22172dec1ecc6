"""Every public function and class of the package, and every public method
and property of a public class, has a caller inside it."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gmac_seit"

# public names kept without an in-package caller, each for a stated reason
ALLOWED = {
    "b_fb_at_nf_sum_capacity": "the paper's (gamma, b_fb) closed form; "
                               "the acceptance and gain tests read it, and "
                               "feedback_gain_ratio shares its _gain_terms "
                               "rather than cancel b_fb - b_nf",
    "error_bound": "decoding-error bound; test_mc and acceptance compare "
                   "Monte Carlo error rates against it until an exact "
                   "error probability replaces it",
    "sample_boundary_records": "boundary_table's rows as records; the "
                               "benchmark's worker draws its contains "
                               "triplets from them, and the tests read "
                               "them, until the worker reads boundary_table "
                               "rows",
}

# public methods and properties kept without an in-package attribute access
ALLOWED_MEMBERS = {
    "BoundarySample.triplet": "the (r1, r2, b) of a sample_boundary_records "
                              "row, which the tests and the benchmark's "
                              "worker pass to contains",
}


def parse_package():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def public_defs(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                yield module, node.name


def public_members(trees):
    """(module, "Class.member") of each public method and property of a
    public top-level class."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield module, f"{node.name}.{item.name}"


def referenced_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def referenced_attributes(trees):
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def test_every_public_name_is_used_in_the_package():
    trees = parse_package()
    used = referenced_names(trees)
    unused = sorted(f"{module}:{name}" for module, name in public_defs(trees)
                    if name not in used and name not in ALLOWED)
    assert unused == []


def test_allowlist_names_only_unused_public_defs():
    trees = parse_package()
    used = referenced_names(trees)
    defined = {name for _, name in public_defs(trees)}
    assert {name for name in ALLOWED if name in defined
            and name not in used} == set(ALLOWED)


def test_every_public_member_is_used_in_the_package():
    trees = parse_package()
    used = referenced_attributes(trees)
    unused = sorted(f"{module}:{member}"
                    for module, member in public_members(trees)
                    if member.split(".")[1] not in used
                    and member not in ALLOWED_MEMBERS)
    assert unused == []


def test_member_allowlist_names_only_unused_members():
    trees = parse_package()
    used = referenced_attributes(trees)
    defined = {member for _, member in public_members(trees)}
    assert {member for member in ALLOWED_MEMBERS if member in defined
            and member.split(".")[1] not in used} == set(ALLOWED_MEMBERS)
