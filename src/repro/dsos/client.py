"""The DSOS Python client API facade.

The paper's analysis modules use the SOS/DSOS Python API; this client
mirrors the bits they need — container attach, typed ingest, parallel
indexed queries — and is the object handed to the web-services data
source.
"""

from __future__ import annotations

from repro.dsos.cluster import DsosCluster
from repro.dsos.query import QueryResult
from repro.dsos.schema import Schema

__all__ = ["DsosClient"]


class DsosClient:
    """Thin, friendly wrapper over a :class:`DsosCluster`."""

    def __init__(self, cluster: DsosCluster):
        self.cluster = cluster

    def ensure_schema(self, schema: Schema) -> None:
        """Attach a schema if it is not already present (idempotent)."""
        if schema.name not in self.cluster.schemas:
            self.cluster.attach_schema(schema)

    def insert(self, schema_name: str, obj: dict) -> bool:
        return self.cluster.insert(schema_name, obj)

    def insert_many(self, schema_name: str, objs) -> int:
        return self.cluster.insert_many(schema_name, objs)

    def count(self, schema_name: str) -> int:
        return self.cluster.count(schema_name)

    def query(
        self,
        schema_name: str,
        index_name: str,
        *,
        prefix: tuple | None = None,
        begin: tuple | None = None,
        end: tuple | None = None,
        where: list[tuple] | None = None,
        limit: int | None = None,
    ) -> QueryResult:
        """One-call query in the style of the SOS Python API examples."""
        q = self.cluster.query(schema_name, index_name)
        if prefix is not None:
            q.prefix(*prefix)
        if begin is not None or end is not None:
            q.range(begin, end)
        for clause in where or ():
            q.where(*clause)
        if limit is not None:
            q.limit(limit)
        return q.execute()
