"""XML-RPC content-based routing (the paper's §4 implementation).

"As messages pass through the system, the CFG parser tagger asserts a
signal associated with a service when that service is found in a
message. This signal is then used to control a switch which routes
the message to the appropriate destination." (Fig. 12)
"""

from repro import _lazy_surface

__getattr__, __dir__ = _lazy_surface(globals(), {
    "repro.apps.xmlrpc.messages": (
        "Base64Value", "DateTimeValue", "DoubleValue", "I4Value", "IntValue",
        "MethodCall", "StringValue", "StructValue", "ArrayValue",
    ),
    "repro.apps.xmlrpc.services": ("ServiceTable", "BANK_SHOPPING_TABLE"),
    "repro.apps.xmlrpc.workload": ("WorkloadGenerator",),
    "repro.apps.xmlrpc.router": (
        "ContentBasedRouter", "NaiveRouter", "RoutedMessage", "RouteRecord",
    ),
})
