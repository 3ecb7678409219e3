"""Ring homomorphisms, the subgroup restriction diagrams of D8, and the
mod-2 coefficient reduction maps.

A homomorphism is a generator-image table, validated at construction:
images must preserve degree, kill the domain's additive torsion, and
send every rewrite relation to zero in the codomain.  A restriction
with no edge of its own, such as D8 to an order-2 subgroup, composes
along the first two-step route of its diagram (K1, K2, K3 via H1; K4,
K5 via H3).  A restriction is fixed by its generator images, so a
diagram commutes, in every degree, exactly when every route between two
nodes has the same generator images; the commutativity checks and the
mod-2 reduction cube compare those images.

The generator images encode the subgroup lattice data of D8: which
generators die on restriction, the K4/K5 images fixed up to the
symmetric swap, and the reduction images X -> x^2, Y -> y^2,
M -> w(x+y), W -> w^2.
"""

from .rings import (D8_F2, D8_Z_BOUND, D8_Z_FULL, H1_F2, H1_Z, H2_F2,
                    H2_Z, H3_F2, H3_Z, K1_F2, K2_F2, K3_F2, K3_Z, K4_F2,
                    K5_F2, RingElement, RingMismatchError, Z2xZ2_F2,
                    Z2xZ2_Z)

__all__ = [
    "RingHom",
    "RestrictionDiagram",
    "F2_DIAGRAM",
    "Z_DIAGRAM",
    "MOD2_REDUCTION",
    "lift_bound_to_full",
    "restriction",
    "check_reduction_cube",
]


class RingHom:
    """Degree-preserving ring homomorphism given on generators.

    Applying it (`__call__`, `compose`, the relation check at
    construction) goes through `_apply`, which builds each generator
    power image_i^e once per call, from the next lower one it needs, and
    each monomial's image as a product of those powers."""

    def __init__(self, domain, codomain, images, name=""):
        self.domain = domain
        self.codomain = codomain
        self.name = name or f"{domain.name}->{codomain.name}"
        imgs = []
        for i, sym in enumerate(domain.gens):
            if sym not in images:
                raise ValueError(f"{self.name}: no image for generator {sym}")
            img = images[sym]
            if isinstance(img, str):
                img = codomain.parse(img)
            elif isinstance(img, int):
                if img != 0:
                    raise ValueError(f"{self.name}: integer image must be 0")
                img = codomain.zero()
            if img.ring != codomain:
                raise RingMismatchError(f"{self.name}: image of {sym} lives in "
                                        f"{img.ring.name}")
            if img and img.degree() != domain.degrees[i]:
                raise ValueError(f"{self.name}: image of {sym} has degree "
                                 f"{img.degree()}, expected {domain.degrees[i]}")
            imgs.append(img)
        self.images = tuple(imgs)
        self._validate()

    def _validate(self):
        dom = self.domain
        for i, img in enumerate(self.images):
            if dom.coeff == "Z" and dom.orders[i] * img != self.codomain.zero():
                raise ValueError(f"{self.name}: image of {dom.gens[i]} does not "
                                 f"kill the order-{dom.orders[i]} torsion")
        for pat, rep in dom.relations:
            lhs, rhs = self._apply(((pat, 1),)), self._apply(rep)
            if lhs != rhs:
                raise ValueError(f"{self.name}: relation on pattern {pat} is "
                                 f"not respected ({lhs} != {rhs})")

    def _apply(self, pairs):
        """The image of sum coeff * mono over the (mono, coeff) pairs: each
        monomial's image is the product of the generator powers image_i^e
        in its support.  A local table holds those powers, built per
        generator in ascending order of the exponents the call needs,
        each from the one before times image_i^gap (so a lone huge
        exponent is one `**`); the raw terms of every coeff * image(mono)
        are put in normal form once."""
        images, codomain = self.images, self.codomain
        pairs = tuple(pairs)
        needed = {}
        for mono, _ in pairs:
            for i, e in enumerate(mono):
                if e:
                    needed.setdefault(i, set()).add(e)
        powers = {}
        for i, exponents in needed.items():
            power, last = None, 0
            for e in sorted(exponents):
                step = images[i] ** (e - last)
                power = powers[i, e] = step if power is None else power * step
                last = e
        terms = {}
        for mono, coeff in pairs:
            image = None
            for i, e in enumerate(mono):
                if e:
                    power = powers[i, e]
                    image = power if image is None else image * power
            for m, c in (codomain.one() if image is None else image).terms.items():
                terms[m] = terms.get(m, 0) + coeff * c
        return RingElement(codomain, codomain.normal_form(terms))

    def __call__(self, element):
        if element.ring != self.domain:
            raise RingMismatchError(f"{self.name} applied to an element of "
                                    f"{element.ring.name}")
        return self._apply(element.terms.items())

    def compose(self, inner):
        """self o inner (inner applied first)."""
        if inner.codomain != self.domain:
            raise RingMismatchError(f"cannot compose {self.name} after {inner.name}")
        images = {sym: self(img) for sym, img in zip(inner.domain.gens, inner.images)}
        return RingHom(inner.domain, self.codomain, images,
                       name=f"{self.name} o {inner.name}")

    @staticmethod
    def identity(ring):
        return RingHom(ring, ring, {s: ring.gen(s) for s in ring.gens},
                       name=f"id_{ring.name}")

    def __repr__(self):
        return f"RingHom({self.name})"


class RestrictionDiagram:
    """Subgroup restriction diagram: one homomorphism per covering
    relation of the subgroup lattice, keyed (src, dst).  `rings` maps
    each node to its cohomology ring, in order of first appearance in
    the edges."""

    def __init__(self, coeff, edges):
        self.coeff = coeff
        self.edges = dict(edges)
        self.rings = {}
        for (src, dst), hom in self.edges.items():
            self.rings.setdefault(src, hom.domain)
            self.rings.setdefault(dst, hom.codomain)

    def res(self, src, dst):
        """Restriction along src >= dst: the identity, or the first route
        of `routes`, which is the edge when there is one (every route
        gives the same map)."""
        if src == dst and src in self.rings:
            return RingHom.identity(self.rings[src])
        routes = self.routes(src, dst)
        if not routes:
            raise KeyError(f"no restriction {src} -> {dst} in the {self.coeff} diagram")
        return routes[0][1]

    def routes(self, src, dst):
        """Every one- or two-step route from src to dst."""
        found = []
        if (src, dst) in self.edges:
            found.append((f"{src}->{dst}", self.edges[(src, dst)]))
        for (a, mid) in self.edges:
            if a == src and (mid, dst) in self.edges:
                found.append((f"{src}->{mid}->{dst}",
                              self.edges[(mid, dst)].compose(self.edges[(src, mid)])))
        return found

    def check_commutativity(self):
        """Compare the generator images of all routes between every node
        pair; returns a list of (label, ok) for every pair admitting at
        least two routes."""
        results = []
        for src in self.rings:
            for dst in self.rings:
                if src == dst:
                    continue
                routes = self.routes(src, dst)
                if len(routes) < 2:
                    continue
                base_label, base = routes[0]
                for label, hom in routes[1:]:
                    results.append((f"{self.coeff}: {base_label} == {label}",
                                    base.images == hom.images))
        return results


# --------------------------------------------------------------- F2 diagram

_F2_EDGES = {
    ("D8", "H1"): RingHom(D8_F2, H1_F2,
                          {"x": 0, "y": "b", "w": "a^2+a*b"}, "res_H1_D8"),
    ("D8", "H2"): RingHom(D8_F2, H2_F2,
                          {"x": "e", "y": "e", "w": "u"}, "res_H2_D8"),
    ("D8", "H3"): RingHom(D8_F2, H3_F2,
                          {"x": "d", "y": 0, "w": "c^2+c*d"}, "res_H3_D8"),
    ("H1", "K1"): RingHom(H1_F2, K1_F2, {"a": "t1", "b": "t1"}, "res_K1_H1"),
    ("H1", "K2"): RingHom(H1_F2, K2_F2, {"a": 0, "b": "t2"}, "res_K2_H1"),
    ("H1", "K3"): RingHom(H1_F2, K3_F2, {"a": "t3", "b": 0}, "res_K3_H1"),
    ("H2", "K3"): RingHom(H2_F2, K3_F2, {"e": 0, "u": "t3^2"}, "res_K3_H2"),
    ("H3", "K3"): RingHom(H3_F2, K3_F2, {"c": "t3", "d": 0}, "res_K3_H3"),
    ("H3", "K4"): RingHom(H3_F2, K4_F2, {"c": "t4", "d": "t4"}, "res_K4_H3"),
    ("H3", "K5"): RingHom(H3_F2, K5_F2, {"c": 0, "d": "t5"}, "res_K5_H3"),
}

F2_DIAGRAM = RestrictionDiagram("F2", _F2_EDGES)

# ---------------------------------------------------------------- Z diagram

_Z_EDGES = {
    ("D8", "H1"): RingHom(D8_Z_FULL, H1_Z,
                          {"X": 0, "Y": "beta", "M": "mu",
                           "W": "alpha^2+alpha*beta"}, "res_H1_D8_Z"),
    ("D8", "H2"): RingHom(D8_Z_FULL, H2_Z,
                          {"X": "2*U", "Y": "2*U", "M": 0, "W": "U^2"},
                          "res_H2_D8_Z"),
    ("D8", "H3"): RingHom(D8_Z_FULL, H3_Z,
                          {"X": "delta", "Y": 0, "M": "eta",
                           "W": "gamma^2+gamma*delta"}, "res_H3_D8_Z"),
    ("H1", "K3"): RingHom(H1_Z, K3_Z,
                          {"alpha": "theta3", "beta": 0, "mu": 0}, "res_K3_H1_Z"),
    ("H2", "K3"): RingHom(H2_Z, K3_Z, {"U": "theta3"}, "res_K3_H2_Z"),
    ("H3", "K3"): RingHom(H3_Z, K3_Z,
                          {"gamma": "theta3", "delta": 0, "eta": 0}, "res_K3_H3_Z"),
}

Z_DIAGRAM = RestrictionDiagram("Z", _Z_EDGES)

# --------------------------------------------------- coefficient reduction

MOD2_REDUCTION = {
    "D8": RingHom(D8_Z_FULL, D8_F2,
                  {"X": "x^2", "Y": "y^2", "M": "w*x+w*y", "W": "w^2"}, "c_D8"),
    "H1": RingHom(H1_Z, H1_F2,
                  {"alpha": "a^2", "beta": "b^2", "mu": "a^2*b+a*b^2"}, "c_H1"),
    "H2": RingHom(H2_Z, H2_F2, {"U": "u"}, "c_H2"),
    "H3": RingHom(H3_Z, H3_F2,
                  {"gamma": "c^2", "delta": "d^2", "eta": "c^2*d+c*d^2"}, "c_H3"),
    "K3": RingHom(K3_Z, K3_F2, {"theta3": "t3^2"}, "c_K3"),
    "Z2xZ2": RingHom(Z2xZ2_Z, Z2xZ2_F2,
                     {"tau1": "t1^2", "tau2": "t2^2", "mu": "t1^2*t2+t1*t2^2"},
                     "c_Z2xZ2"),
}


def lift_bound_to_full(element):
    """Section of the quotient D8_Z_FULL -> D8_Z_BOUND that kills X:
    Y -> Y, M -> M, W -> W.

    A substitution on normal forms, not a ring map (it does not respect
    M^2 = W*Y); exact here because bound-ring normal monomials map to
    X-free full-ring normal monomials of the same additive order, so the
    lifted terms are built as written, without `element` or `normal_form`.
    """
    if element.ring != D8_Z_BOUND:
        raise RingMismatchError("expected an element of the bound ring")
    return RingElement(D8_Z_FULL, {(0,) + mono: c
                                   for mono, c in element.terms.items()})


def restriction(src, dst, coeff):
    """Catalog lookup: restriction from subgroup `src` to `dst` for the
    given coefficient system ('F2' or 'Z')."""
    diagram = {"F2": F2_DIAGRAM, "Z": Z_DIAGRAM}.get(coeff)
    if diagram is None:
        raise KeyError(f"unknown coefficient system {coeff!r}")
    return diagram.res(src, dst)


def check_reduction_cube():
    """Mod-2 reduction commutes with restriction: for each subgroup pair
    in the Z diagram, res_F2 o c and c o res_Z have equal generator
    images."""
    results = []
    pairs = [(s, d) for (s, d) in Z_DIAGRAM.edges] + [("D8", "K3")]
    for src, dst in pairs:
        lhs = F2_DIAGRAM.res(src, dst).compose(MOD2_REDUCTION[src])
        rhs = MOD2_REDUCTION[dst].compose(Z_DIAGRAM.res(src, dst))
        results.append((f"cube {src}->{dst}", lhs.images == rhs.images))
    return results
