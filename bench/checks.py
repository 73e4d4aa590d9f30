"""Output checks for the benchmark workloads.

Every expected value here is computed from a closed formula or by direct
table lookups, never by calling the program. Each check returns a list of
problems; an empty list means the output is accepted.
"""

from math import comb, factorial, gcd


def a2_aut_order(n):
    """|Aut A2(n, theta)| = n (2^n - 1) 2^(n^2)."""
    return n * (2**n - 1) * 2 ** (n * n)


def b2_aut_order(n):
    """|Aut B2(n)| = 2n (2^(2n) - 1) 2^(2n^2)."""
    return 2 * n * (2 ** (2 * n) - 1) * 2 ** (2 * n * n)


PEPS_AUT_ORDER = 63 * 2**18


def a2_fusion_sizes(n):
    """Identity, the 2^n - 1 central involutions, the elements of order 4."""
    return [1, 2**n - 1, 2 ** (2 * n) - 2**n]


def quaternion_aut_order(order):
    """|Aut Q_(2^m)| = 2^(2m - 3) for m >= 4."""
    m = order.bit_length() - 1
    return 2 ** (2 * m - 3)


def homocyclic_aut_order(rank, exponent):
    """|GL_rank(Z/exponent)| for exponent a power of 2: 2^((e-1) r^2) |GL_r(2)|."""
    e = exponent.bit_length() - 1
    return 2 ** ((e - 1) * rank * rank) * gl_order(rank, 2)


def gl_order(m, q):
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def sl_order(m, q):
    return gl_order(m, q) // (q - 1)


def gamma_l1_order(n):
    return n * (2**n - 1)


def psu3_order(q):
    return q**3 * (q**3 + 1) * (q**2 - 1) // gcd(3, q + 1)


def g2_order(q):
    return q**6 * (q**6 - 1) * (q**2 - 1)


def sp4_order(q):
    return q**4 * (q**2 - 1) * (q**4 - 1)


# catalog name -> classical order of the group the entry generates
CLASSICAL_ORDERS = {
    "sl:4:1": sl_order(4, 2),
    "sl:2:5": sl_order(2, 32),
    "gamma_l1:10": gamma_l1_order(10),
    "a6": factorial(6) // 2,
    "sp4_2": sp4_order(2),
    "a7": factorial(7) // 2,
    "psu3_3": psu3_order(3),
    "g2_2": g2_order(2),
}

# suzuki-suite claim prefix -> (automorphism order, fusion sizes or None)
SUITE_AUT = {
    "a2-3-1": (a2_aut_order(3), a2_fusion_sizes(3)),
    "a2-5-1": (a2_aut_order(5), a2_fusion_sizes(5)),
    "b2-2": (b2_aut_order(2), None),
    "peps": (PEPS_AUT_ORDER, None),
}

# brute-oracle group spec -> automorphism count
BRUTE_COUNTS = {
    "a2:3:1": a2_aut_order(3),
    "b2:2": b2_aut_order(2),
    "q:64": quaternion_aut_order(64),
    "hc:2:4": homocyclic_aut_order(2, 4),
}

DEFAULT_SLUGS = (
    "theorem-dual-n-3",
    "theorem-dual-n-6",
    "small-eliminations-entry-a6",
    "small-eliminations-entry-sp4_2",
    "small-eliminations-entry-a7",
    "small-eliminations-entry-psu3_3",
    "small-eliminations-entry-g2_2",
    "sl2-omega-f-2",
    "sp-lambda-f-1",
    "sp-lambda-f-2",
    "suzuki-suite-slow-false",
)

_OK_STATUSES = ("pass", "recorded", "trusted-citation")


def check_report(slug, report):
    """A scenario report: verdict pass, no failed claim, formula claims hold."""
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"{slug}: verdict {report.get('verdict')!r}")
    claims = {c["id"]: c for c in report.get("claims", [])}
    for cid, c in claims.items():
        if c.get("status") not in _OK_STATUSES:
            problems.append(f"{slug}: claim {cid} has status {c.get('status')!r}")
    if slug == "suzuki-suite-slow-false":
        for pre, (aut, fusion) in SUITE_AUT.items():
            got = claims.get(f"{pre}-aut-order", {}).get("computed")
            if got != aut:
                problems.append(f"{slug}: {pre} automorphism order {got!r}, formula {aut}")
            if fusion is not None:
                got = claims.get(f"{pre}-fusion-classes", {}).get("computed")
                if got != fusion:
                    problems.append(f"{slug}: {pre} fusion sizes {got!r}, formula {fusion}")
    return problems


def check_default_plan(exit_code, reports, digests, expected_digests):
    """The `verify all` output: exit 0, every plan report present and passing,
    and each report byte-identical to the reference digest."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    missing = [s for s in DEFAULT_SLUGS if s not in reports]
    extra = sorted(set(reports) - set(DEFAULT_SLUGS))
    if missing or extra:
        problems.append(f"report set differs: missing {missing}, extra {extra}")
    for slug in DEFAULT_SLUGS:
        if slug in reports:
            problems += check_report(slug, reports[slug])
            problems += check_digest(slug, digests[slug], expected_digests)
    return problems


def check_digest(slug, digest, expected_digests):
    want = expected_digests.get(slug)
    if digest != want:
        return [f"{slug}: report digest {digest[:12]} differs from reference {str(want)[:12]}"]
    return []


def check_entry(name, result):
    """A catalog.verify_entry result against the classical order."""
    problems = [] if result.get("passed") else [f"{name}: verify_entry did not pass"]
    checks = {c["name"]: c for c in result.get("checks", [])}
    got = checks.get("order", {}).get("computed")
    if got != CLASSICAL_ORDERS[name]:
        problems.append(f"{name}: order {got!r}, formula {CLASSICAL_ORDERS[name]}")
    return problems


def lemma22_dims(d, f):
    """Summand GF(2) dimensions of the restricted exterior square of a dim-d
    module over GF(2^f): f C(d,2), then f d^2 per full twist, then a half
    term f d^2 / 2 when f is even."""
    dims = [f * comb(d, 2)]
    dims += [f * d * d for _ in range(1, (f + 1) // 2)]
    if f > 1 and f % 2 == 0:
        dims.append(f * d * d // 2)
    return dims


def check_decomposition(result, d, f):
    problems = [] if result.get("passed") else ["decompose_lemma22 did not pass"]
    want = lemma22_dims(d, f)
    if result.get("summand_dims") != want:
        problems.append(f"summand dims {result.get('summand_dims')!r}, expected {want}")
    return problems


def product_breaks(mul_src, mul_dst, maps, gens):
    """First (x, g) with maps[x g] != maps[x] maps[g], over every element x and
    every generator g, else None. With maps a bijection fixing the identity
    this decides the homomorphism property, by induction on word length."""
    for g in gens:
        mg = maps[g]
        for x, row in enumerate(mul_src):
            if maps[row[g]] != mul_dst[maps[x]][mg]:
                return (x, g)
    return None


def all_products_hold(mul_src, mul_dst, maps):
    """Every one of the n^2 products, by direct table lookup."""
    return all(
        maps[row[h]] == mul_dst[maps[g]][maps[h]]
        for g, row in enumerate(mul_src)
        for h in range(len(row))
    )


def generated(mul, gens):
    """The elements reached from the identity by right multiplication by
    generators: the whole group exactly when gens generate it."""
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [y for x in frontier for y in (mul[x][g] for g in gens) if y not in seen]
        seen.update(frontier)
    return seen


def check_automorphisms(spec, mul, gens, maps_list):
    """A brute_force_aut result: the formula count, distinct maps, each a
    bijection fixing the identity that respects every product."""
    problems = []
    if len(generated(mul, gens)) != len(mul):
        return [f"{spec}: the generators do not generate the table"]
    want = BRUTE_COUNTS[spec]
    if len(maps_list) != want:
        problems.append(f"{spec}: {len(maps_list)} automorphisms, formula {want}")
    if len(set(maps_list)) != len(maps_list):
        problems.append(f"{spec}: repeated automorphisms")
    points = list(range(len(mul)))
    for maps in maps_list:
        if maps[0] != 0:
            problems.append(f"{spec}: a map moves the identity")
            break
        if sorted(maps) != points:
            problems.append(f"{spec}: a map is not a bijection")
            break
        if product_breaks(mul, mul, maps, gens) is not None:
            problems.append(f"{spec}: a map breaks a product")
            break
    return problems


def check_isomorphism(mul_src, mul_dst, maps):
    """An isomorphism between two order-n tables, over all n^2 products."""
    n = len(mul_src)
    if len(mul_dst) != n or sorted(maps) != list(range(n)):
        return ["isomorphism is not a bijection"]
    if not all_products_hold(mul_src, mul_dst, maps):
        return ["isomorphism breaks a product"]
    return []


def swap_images(maps, i, j):
    """maps with the images of i and j exchanged. For i != j this always
    breaks a product once the order exceeds 4: an automorphism fixing all
    but two elements fixes a subgroup of more than half the group."""
    out = list(maps)
    out[i], out[j] = out[j], out[i]
    return tuple(out)
