"""PG-Schema to DL-Schema translation (paper Figure 2).

Every node type becomes an EDB relation whose first column is the node's
``id`` followed by the remaining properties in declaration order.  Every edge
type becomes an EDB relation named ``<Source>_<LABEL>_<Target>`` (the label is
upper-snake-cased, as in the paper's ``Person_IS_LOCATED_IN_City``) whose
first two columns ``id1`` and ``id2`` hold the source and target node ids,
followed by the edge's own properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.errors import SchemaError
from repro.schema.dl_schema import DLColumn, DLRelation, DLSchema, DLType
from repro.schema.pg_schema import EdgeType, NodeType, PGSchema, normalize_edge_label


def edge_label_to_snake(label: str) -> str:
    """Convert an edge label such as ``isLocatedIn`` to ``IS_LOCATED_IN``.

    Already upper-snake-cased labels (``IS_LOCATED_IN``, ``KNOWS``) pass
    through unchanged.
    """
    return normalize_edge_label(label)


def edge_relation_name(schema: PGSchema, edge_type: EdgeType) -> str:
    """Return the DL-Schema relation name for ``edge_type``."""
    source = schema.resolve_node_label(edge_type.source)
    target = schema.resolve_node_label(edge_type.target)
    return f"{source}_{edge_label_to_snake(edge_type.label)}_{target}"


@dataclass
class SchemaMapping:
    """The result of the data-model transformation.

    Besides the flat :class:`DLSchema`, the mapping keeps enough provenance
    for query translation: which relation encodes which node/edge label, where
    each property landed (column index), and which columns hold node keys.
    """

    pg_schema: PGSchema
    dl_schema: DLSchema
    node_relation_by_label: Dict[str, str] = field(default_factory=dict)
    edge_relation_by_name: Dict[str, str] = field(default_factory=dict)

    # -- node helpers ----------------------------------------------------

    def node_relation(self, label: str) -> DLRelation:
        """Return the EDB relation for the node label ``label``."""
        try:
            name = self.node_relation_by_label[label]
        except KeyError as exc:
            raise SchemaError(f"no relation for node label {label!r}") from exc
        return self.dl_schema.get(name)

    def node_property_index(self, label: str, property_name: str) -> int:
        """Return the column index of ``property_name`` in the node relation."""
        return self.node_relation(label).column_index(property_name)

    def node_key_index(self, label: str) -> int:
        """Return the column index of the node key (always 0 by construction)."""
        del label
        return 0

    # -- edge helpers ----------------------------------------------------

    def edge_relation(
        self,
        label: str,
        source_label: Optional[str] = None,
        target_label: Optional[str] = None,
    ) -> DLRelation:
        """Return the EDB relation for the edge ``label`` between the endpoints."""
        edge_type = self.pg_schema.edge_type_between(label, source_label, target_label)
        name = edge_relation_name(self.pg_schema, edge_type)
        return self.dl_schema.get(name)

    def edge_endpoints(self, relation_name: str) -> Tuple[str, str]:
        """Return the (source label, target label) of an edge relation."""
        for edge_type in self.pg_schema.edge_types:
            if edge_relation_name(self.pg_schema, edge_type) == relation_name:
                return (
                    self.pg_schema.resolve_node_label(edge_type.source),
                    self.pg_schema.resolve_node_label(edge_type.target),
                )
        raise SchemaError(f"{relation_name!r} is not an edge relation")

    def is_edge_relation(self, relation_name: str) -> bool:
        """Return whether ``relation_name`` encodes an edge type."""
        return relation_name in set(self.edge_relation_by_name.values())

    def is_node_relation(self, relation_name: str) -> bool:
        """Return whether ``relation_name`` encodes a node type."""
        return relation_name in set(self.node_relation_by_label.values())



def _node_relation(node_type: NodeType) -> DLRelation:
    columns = []
    names_seen = set()
    ordered = list(node_type.properties)
    # The node id column always comes first, even if the schema listed it later.
    id_props = [prop for prop in ordered if prop.name == "id"]
    other_props = [prop for prop in ordered if prop.name != "id"]
    if id_props:
        head = id_props[0]
        columns.append(DLColumn(head.name, DLType.from_property_type(head.type)))
        names_seen.add(head.name)
    else:
        columns.append(DLColumn("id", DLType.NUMBER))
        names_seen.add("id")
    for prop in other_props:
        if prop.name in names_seen:
            raise SchemaError(
                f"duplicate property {prop.name!r} on node type {node_type.label!r}"
            )
        names_seen.add(prop.name)
        columns.append(DLColumn(prop.name, DLType.from_property_type(prop.type)))
    return DLRelation(name=node_type.label, columns=tuple(columns), is_edb=True)


def _edge_relation(schema: PGSchema, edge_type: EdgeType) -> DLRelation:
    columns = [DLColumn("id1", DLType.NUMBER), DLColumn("id2", DLType.NUMBER)]
    for prop in edge_type.properties:
        if prop.name in ("id1", "id2"):
            raise SchemaError(
                f"edge type {edge_type.label!r} may not declare a property "
                f"named {prop.name!r}"
            )
        columns.append(DLColumn(prop.name, DLType.from_property_type(prop.type)))
    return DLRelation(
        name=edge_relation_name(schema, edge_type),
        columns=tuple(columns),
        is_edb=True,
    )


def pg_to_dl_schema(pg_schema: PGSchema) -> SchemaMapping:
    """Translate ``pg_schema`` into a DL-Schema plus provenance mapping."""
    dl_schema = DLSchema()
    mapping = SchemaMapping(pg_schema=pg_schema, dl_schema=dl_schema)
    for node_type in pg_schema.node_types:
        relation = _node_relation(node_type)
        dl_schema.add(relation)
        mapping.node_relation_by_label[node_type.label] = relation.name
    for edge_type in pg_schema.edge_types:
        relation = _edge_relation(pg_schema, edge_type)
        if relation.name in dl_schema:
            raise SchemaError(f"duplicate edge relation {relation.name!r}")
        dl_schema.add(relation)
        mapping.edge_relation_by_name[edge_type.type_name] = relation.name
    return mapping
