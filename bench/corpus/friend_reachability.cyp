MATCH (p:Person {id: $personId})-[:KNOWS*]-(friend:Person)
RETURN DISTINCT friend.id AS friendId
