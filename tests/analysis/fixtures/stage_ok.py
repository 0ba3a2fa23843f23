"""Fixture: Stage subclasses whose declarations match their ctx use."""


class CleanCentralStage(Stage):  # noqa: F821
    name = "clean-central"
    inputs = ("queries", "plan")
    outputs = ("results",)
    optional = ("verbose",)

    def run_central(self, ctx):
        queries = ctx.require("queries")
        plan = ctx["plan"]
        if ctx.get("verbose"):
            print(plan)
        # Re-reading an output the stage itself wrote is legal.
        ctx.setdefault("results", [])
        ctx["results"].extend(queries)


class CleanScatterStage(Stage):  # noqa: F821
    name = "clean-scatter"
    scatter = True
    inputs = ("queries",)
    outputs = ("results",)
    scratch = ("chunk_groups",)

    def split(self, ctx, width):
        queries = ctx["queries"]
        ctx["chunk_groups"] = [list(range(len(queries)))]
        return [("select", queries)]

    def merge(self, ctx, chunks):
        groups = ctx["chunk_groups"]
        ctx["results"] = [chunks, groups]


class InheritingStage(CleanCentralStage):
    """Declarations are inherited; this body stays inside them."""

    name = "inheriting"

    def run_central(self, ctx):
        ctx["results"] = list(ctx["queries"])
