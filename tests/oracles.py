"""Oracles the property tests compare enrichments with."""


def same_presentation(a, b) -> bool:
    """Exact equality of presentation: base, names, extents and homs."""
    return (
        a.base is b.base
        and a.objects == b.objects
        and a.extents == b.extents
        and a.row_maps == b.row_maps
    )


def isomorphic_by(a, b, mapping: list[int]) -> bool:
    """Whether ``mapping`` is a bijective hom-preserving functor a -> b."""
    if sorted(mapping) != list(range(b.n_objects)) or a.n_objects != b.n_objects:
        return False
    return all(
        a.extents[i] == b.extents[mapping[i]]
        and {mapping[j]: x for j, x in row.items()} == b.row_maps[mapping[i]]
        for i, row in enumerate(a.row_maps)
    )
